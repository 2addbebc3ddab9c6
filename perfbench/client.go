package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// tally counts attempted and failed operations, with the reason for each
// failure, so a nonzero failed_frac always names the failing check.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   map[string]int64
}

func newTally() *tally { return &tally{reasons: map[string]int64{}} }

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(reason string) {
	t.mu.Lock()
	t.failed++
	t.reasons[reason]++
	t.mu.Unlock()
}

func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

func (t *tally) frac() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// reasonList renders the failure reasons, most frequent first.
func (t *tally) reasonList() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.reasons))
	for r, n := range t.reasons {
		out = append(out, fmt.Sprintf("%s x%d", r, n))
	}
	sort.Strings(out)
	return out
}

// statusFailure classifies an HTTP status: "" for success, otherwise the
// failure reason. A 429 or 503 is a refusal, any 5xx a server failure, and
// any other non-2xx status an unexpected rejection; all count as failed.
func statusFailure(op string, status int) string {
	switch {
	case status >= 200 && status < 300:
		return ""
	case status == http.StatusTooManyRequests:
		return op + ": refused 429"
	case status == http.StatusServiceUnavailable:
		return op + ": refused 503"
	case status >= 500:
		return fmt.Sprintf("%s: server error %d", op, status)
	}
	return fmt.Sprintf("%s: unexpected status %d", op, status)
}

// client issues the benchmark's HTTP requests.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: failedLatencyMs * time.Millisecond}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil). It returns the status, or 0 with an error when no answer came.
func (c *client) do(method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 || out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// jsonBody marshals v, which is always a plain struct or map here.
func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// awaitDone reads a job's server-sent event stream until its `done`
// event and decodes that event's data into out.
func (c *client) awaitDone(url string, out any) (int, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			return resp.StatusCode, json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), out)
		}
	}
	if err := sc.Err(); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, fmt.Errorf("stream %s ended without a done event", url)
}

// stats fetches a node's /stats document.
func (c *client) stats(base string) (nodeStats, error) {
	var st nodeStats
	status, err := c.do("GET", base+"/stats", nil, &st)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s/stats: status %d", base, status)
	}
	return st, err
}

// nodeStats is the part of a node's /stats document the benchmark reads.
type nodeStats struct {
	Jobs struct {
		Shed     int64 `json:"shed"`
		Degraded int64 `json:"degraded"`
	} `json:"jobs"`
	Cache struct {
		Hits    int64 `json:"hits"`
		Lookups int64 `json:"lookups"`
	} `json:"cache"`
	Mutations struct {
		WarmRuns    int64 `json:"warmRuns"`
		ColdRuns    int64 `json:"coldRuns"`
		SweepsSaved int64 `json:"sweepsSaved"`
	} `json:"mutations"`
	Index struct {
		Builds    int64 `json:"builds"`
		Reuses    int64 `json:"reuses"`
		Fallbacks int64 `json:"fallbacks"`
	} `json:"index"`
	Persistence struct {
		Compactions int64 `json:"compactions"`
		Errors      int64 `json:"errors"`
	} `json:"persistence"`
	Replication struct {
		BytesPulled        int64 `json:"bytesPulled"`
		SnapshotsInstalled int64 `json:"snapshotsInstalled"`
		BatchesApplied     int64 `json:"batchesApplied"`
	} `json:"replication"`
}

// sub returns the counter deltas a - b.
func (a nodeStats) sub(b nodeStats) nodeStats {
	d := a
	d.Jobs.Shed -= b.Jobs.Shed
	d.Jobs.Degraded -= b.Jobs.Degraded
	d.Cache.Hits -= b.Cache.Hits
	d.Cache.Lookups -= b.Cache.Lookups
	d.Mutations.WarmRuns -= b.Mutations.WarmRuns
	d.Mutations.ColdRuns -= b.Mutations.ColdRuns
	d.Mutations.SweepsSaved -= b.Mutations.SweepsSaved
	d.Index.Builds -= b.Index.Builds
	d.Index.Reuses -= b.Index.Reuses
	d.Index.Fallbacks -= b.Index.Fallbacks
	d.Persistence.Compactions -= b.Persistence.Compactions
	d.Persistence.Errors -= b.Persistence.Errors
	d.Replication.BytesPulled -= b.Replication.BytesPulled
	d.Replication.SnapshotsInstalled -= b.Replication.SnapshotsInstalled
	d.Replication.BatchesApplied -= b.Replication.BatchesApplied
	return d
}

// add returns the counter sums a + b.
func (a nodeStats) add(b nodeStats) nodeStats {
	neg := nodeStats{}
	return a.sub(neg.sub(b))
}
