package main

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http.mutate", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "store.begin", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "store.commit", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "store.fsync", Start: 12, End: 15},
		{ID: 5, Parent: 1, Name: "store.late", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Name: "replay.compute", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[int64]float64{
		1: 100 - 40 - 10, // children cover 10..50 and 90..100
		2: 20 - 3,
		3: 30,
		4: 3,
		5: 30,
		6: 10,
	}
	for id, w := range want {
		if !approx(self[id], w) {
			t.Fatalf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	layers := selfByLayer(spans)
	if !approx(layers["http"], 50) || !approx(layers["store"], 17+30+3+30) || !approx(layers["replay"], 10) {
		t.Fatalf("self time by layer: %v", layers)
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	var off *tracer
	if sp := off.beginOp("http.lookup"); sp != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := newTracer()
	if sp := tr.beginOp("http.lookup"); sp != nil {
		t.Fatal("a tracer that is not switched on must record nothing")
	}
	tr.on.Store(true)
	root := tr.beginOp("http.mutate")
	child := tr.begin("store.begin", root, 0)
	child.end()
	root.end()
	other := tr.beginOp("http.lookup")
	other.end()
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	m, b, l := byName["http.mutate"], byName["store.begin"], byName["http.lookup"]
	if b.Parent != m.ID || b.Req != m.Req || m.Parent != 0 {
		t.Fatalf("child not linked to its parent: %+v %+v", m, b)
	}
	if l.Req == m.Req {
		t.Fatal("two operations share a request id")
	}
	if b.Start < m.Start || b.End > m.End {
		t.Fatalf("child interval %v..%v outside parent %v..%v", b.Start, b.End, m.Start, m.End)
	}
}
