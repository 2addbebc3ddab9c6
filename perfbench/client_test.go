package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"nucleus"
)

func TestStatusFailure(t *testing.T) {
	for status, want := range map[int]string{
		200: "",
		201: "",
		202: "",
		429: "op: refused 429",
		503: "op: refused 503",
		502: "op: server error 502",
		500: "op: server error 500",
		404: "op: unexpected status 404",
	} {
		if got := statusFailure("op", status); got != want {
			t.Fatalf("status %d: %q, want %q", status, got, want)
		}
	}
}

// TestFailureAccounting drives refusals and server errors through the
// client as the phases do, and a wrong κ through the scaling check: each
// counts as attempted and failed, under its own reason.
func TestFailureAccounting(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/"))
		w.WriteHeader(status)
	}))
	defer ts.Close()
	c := newClient()
	defer c.close()
	tl := newTally()
	var lat samples
	for _, status := range []int{200, 429, 503, 502} {
		tl.attempt()
		got, err := c.do("GET", ts.URL+"/"+strconv.Itoa(status), nil, nil)
		if reason := opFailure("probe", got, err); reason != "" {
			tl.fail(reason)
			lat.addFailed()
			continue
		}
		lat.add(1)
	}
	if a, f := tl.counts(); a != 4 || f != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", a, f)
	}
	reasons := strings.Join(tl.reasonList(), "; ")
	for _, want := range []string{"refused 429", "refused 503", "server error 502"} {
		if !strings.Contains(reasons, want) {
			t.Fatalf("reasons %q miss %q", reasons, want)
		}
	}
	if lat.median() != failedLatencyMs {
		t.Fatalf("three failures out of four must dominate the median, got %v", lat.median())
	}

	// A wrong κ: corrupt the peel oracle of one decomposition.
	fam := tinyFamilies["community"]
	cfg := runConfig{seed: 1, nproc: 2, family: fam}
	inputs, err := setupScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrong := newTally()
	for _, in := range inputs {
		in.oracle = map[nucleus.Decomposition][]int32{}
		for _, dec := range scalingDecs {
			in.oracle[dec] = nucleus.Decompose(in.g, dec, nucleus.Options{Algorithm: nucleus.Peel}).Kappa
		}
		k := in.oracle[nucleus.KTruss]
		k[0]++ // now every truss answer disagrees with the oracle
	}
	round(cfg, nil, inputs, wrong)
	a, f := wrong.counts()
	perDec := int64(len(inputs) * (len(scalingAlgs)*2 - 1)) // SND at nproc only
	if a != 3*perDec || f != perDec {
		t.Fatalf("wrong κ: attempted %d failed %d, want %d and %d", a, f, 3*perDec, perDec)
	}
	if !strings.Contains(strings.Join(wrong.reasonList(), ";"), "κ differs from peel.Run") {
		t.Fatalf("wrong κ not named: %v", wrong.reasonList())
	}
}
