package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"nucleus/internal/replica"
	"nucleus/internal/server"
	"nucleus/internal/store"
)

func TestWrapStoreForwardsCapabilities(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	_, fsRS := store.Store(fs).(store.ReplicationSource)
	_, fsTL := store.Store(fs).(store.ThreadedLoader)
	wrapped, _ := wrapStore(fs, newTracer())
	_, rs := wrapped.(store.ReplicationSource)
	_, tl := wrapped.(store.ThreadedLoader)
	if rs != fsRS || tl != fsTL || !rs || !tl {
		t.Fatalf("FS store: ReplicationSource %v→%v, ThreadedLoader %v→%v", fsRS, rs, fsTL, tl)
	}
	null, _ := wrapStore(store.Null(), newTracer())
	if _, ok := null.(store.ReplicationSource); ok {
		t.Fatal("wrapping the null store invented a ReplicationSource")
	}
	if _, ok := null.(store.ThreadedLoader); ok {
		t.Fatal("wrapping the null store invented a ThreadedLoader")
	}
}

// TestTracedStorePassesReplicaPull runs a primary and a replica on
// decorated stores: a pull ships the primary's snapshot and WAL through
// the decorator, the replica serves the primary's exact version and κ,
// and the store spans hang under the writer's operations.
func TestTracedStorePassesReplicaPull(t *testing.T) {
	dir := t.TempDir()
	tr := newTracer()
	tr.on.Store(true)
	primary, err := startNode(filepath.Join(dir, "p"), tr, server.Config{
		Replication: server.ReplicationConfig{Role: replica.RolePrimary, Generation: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.close()
	rep, err := startNode(filepath.Join(dir, "r"), tr, server.Config{
		Replication: server.ReplicationConfig{Role: replica.RoleReplica, Primary: primary.url(), Generation: 1, PullInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.close()
	c := newClient()
	defer c.close()

	mustDo := func(method, url string, body []byte, out any, want int) {
		t.Helper()
		status, err := c.do(method, url, body, out)
		if err != nil || status != want {
			t.Fatalf("%s %s: status %d, %v; want %d", method, url, status, err, want)
		}
	}
	op := tr.beginOp("http.generate")
	op.ingest = true
	tr.setCurrent(op)
	mustDo("POST", primary.url()+"/graphs/g/generate", jsonBody(map[string]any{"generator": "complete", "n": 6}), nil, http.StatusCreated)
	op.end()
	op = tr.beginOp("http.mutate")
	tr.setCurrent(op)
	var ack struct {
		Version uint64 `json:"version"`
	}
	mustDo("POST", primary.url()+"/graphs/g/edges", []byte(`{"edits":[{"op":"remove","u":0,"v":1},{"op":"add","u":0,"v":6}]}`), &ack, http.StatusOK)
	op.end()
	pull := tr.beginOp("http.pull")
	tr.setCurrent(pull)
	mustDo("POST", rep.url()+"/replication/pull", nil, nil, http.StatusOK)
	pull.end()
	tr.setCurrent(nil)

	type coreView struct {
		Version     uint64  `json:"version"`
		CoreNumbers []int32 `json:"coreNumbers"`
	}
	q := "/graphs/g/core?v=0&v=1&v=2&v=3&v=4&v=5&v=6"
	var pv, rv coreView
	mustDo("GET", primary.url()+q, nil, &pv, http.StatusOK)
	mustDo("GET", rep.url()+q, nil, &rv, http.StatusOK)
	if rv.Version != ack.Version || pv.Version != ack.Version || !equalKappa(pv.CoreNumbers, rv.CoreNumbers) {
		t.Fatalf("replica at v%d κ=%v, primary at v%d κ=%v, acked v%d", rv.Version, rv.CoreNumbers, pv.Version, pv.CoreNumbers, ack.Version)
	}

	spans := tr.snapshot()
	ids := map[int64]string{}
	for _, s := range spans {
		ids[s.ID] = s.Name
	}
	parents := map[string]map[string]bool{}
	for _, s := range spans {
		if parents[s.Name] == nil {
			parents[s.Name] = map[string]bool{}
		}
		parents[s.Name][ids[s.Parent]] = true
	}
	for _, want := range [][2]string{
		{"store.snapshot", "http.generate"},
		{"store.begin", "http.mutate"},
		{"store.commit", "http.mutate"},
		{"store.begin", "http.pull"}, // the replica logs the shipped batch
	} {
		if !parents[want[0]][want[1]] {
			t.Fatalf("no %s span under %s (spans: %s)", want[0], want[1], fmt.Sprint(spans))
		}
	}
	if !parents["store.wal_image"]["http.pull"] && !parents["store.snapshot_image"]["http.pull"] {
		t.Fatalf("the pull read nothing through the primary's decorated ReplicationSource (spans: %s)", fmt.Sprint(spans))
	}
	if primary.traced.edits.Load() != 2 || primary.traced.walBytes.Load() == 0 || primary.traced.errors.Load() != 0 {
		t.Fatalf("primary store counters: edits=%d bytes=%d errors=%d",
			primary.traced.edits.Load(), primary.traced.walBytes.Load(), primary.traced.errors.Load())
	}
}
