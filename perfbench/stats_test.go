package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		maxP   float64
		ok     bool
		p      float64
		beyond int
	}{
		{n: 10, maxP: 99, ok: false}, // 5 beyond p50: too few for any rung
		{n: 19, maxP: 99, ok: false}, // 9 beyond p50
		{n: 20, maxP: 99, ok: true, p: 50, beyond: 10},
		{n: 99, maxP: 99, ok: true, p: 50, beyond: 49}, // 9 beyond p90
		{n: 100, maxP: 99, ok: true, p: 90, beyond: 10},
		{n: 999, maxP: 99, ok: true, p: 90, beyond: 99},
		{n: 1000, maxP: 99, ok: true, p: 99, beyond: 10},
		{n: 200000, maxP: 99, ok: true, p: 99, beyond: 2000}, // the ladder stops at p99
		{n: 5000, maxP: 90, ok: true, p: 90, beyond: 500},    // capped below p99
		{n: 50, maxP: 90, ok: true, p: 50, beyond: 25},       // cap or not, too few for p90
	}
	for _, c := range cases {
		tl, ok := tailOf(seq(c.n), c.maxP)
		if ok != c.ok {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
		}
		if !ok {
			if tl.Value != 0 {
				t.Fatalf("n=%d: reported %v with too few samples beyond", c.n, tl.Value)
			}
			continue
		}
		if tl.Percentile != c.p || tl.Beyond != c.beyond || tl.Count != c.n {
			t.Fatalf("n=%d: got p%g with %d beyond of %d, want p%g with %d beyond", c.n, tl.Percentile, tl.Beyond, tl.Count, c.p, c.beyond)
		}
		// At least minBeyond samples lie strictly above the value.
		above := 0
		for _, v := range seq(c.n) {
			if v > tl.Value {
				above++
			}
		}
		if above < minBeyond {
			t.Fatalf("n=%d: only %d samples above the p%g value %v", c.n, above, tl.Percentile, tl.Value)
		}
	}
}

func TestBlockTail(t *testing.T) {
	cases := []struct {
		n, blocks, beyond int
		maxP, p           float64
		ok                bool
	}{
		{n: 39, maxP: 99, ok: false}, // one block of 20 for p50: too few
		{n: 40, maxP: 99, ok: true, p: 50, blocks: 2, beyond: 10},
		{n: 199, maxP: 99, ok: true, p: 50, blocks: 9, beyond: 11},
		{n: 200, maxP: 99, ok: true, p: 90, blocks: 2, beyond: 10},
		{n: 1999, maxP: 99, ok: true, p: 90, blocks: 19, beyond: 10},
		{n: 2000, maxP: 99, ok: true, p: 99, blocks: 2, beyond: 10},
		{n: 5000, maxP: 90, ok: true, p: 90, blocks: 50, beyond: 10}, // capped below p99
	}
	for _, c := range cases {
		tl, ok := blockTailOf(seq(c.n), c.maxP)
		if ok != c.ok {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
		}
		if !ok {
			if tl.Value != 0 {
				t.Fatalf("n=%d: reported %v with too few blocks", c.n, tl.Value)
			}
			continue
		}
		if tl.Percentile != c.p || tl.Blocks != c.blocks || tl.Beyond != c.beyond || tl.Count != c.n {
			t.Fatalf("n=%d: got p%g over %d blocks with %d beyond, want p%g over %d with %d",
				c.n, tl.Percentile, tl.Blocks, tl.Beyond, c.p, c.blocks, c.beyond)
		}
	}

	// A slow spell covering a few percent of the run moves the pooled
	// p99 to the spell's latency but leaves the median block's p99 alone.
	steady := make([]float64, 10000)
	for i := range steady {
		steady[i] = 1 + float64(i%100)/100 // p99 of every block ≈ 1.99
	}
	spell := append([]float64(nil), steady...)
	for i := 3000; i < 3300; i++ {
		spell[i] = 50
	}
	base, _ := blockTailOf(steady, 99)
	hit, _ := blockTailOf(spell, 99)
	pooled, _ := tailOf(spell, 99)
	if hit.Value != base.Value || pooled.Value != 50 {
		t.Fatalf("block tail %v (steady %v), pooled %v: want the spell only in the pooled tail", hit.Value, base.Value, pooled.Value)
	}
	// A slowdown of most of the run moves it.
	slow := append([]float64(nil), steady...)
	for i := 0; i < 6000; i++ {
		slow[i] *= 2
	}
	if got, _ := blockTailOf(slow, 99); got.Value <= base.Value*1.5 {
		t.Fatalf("block tail %v after most blocks doubled, steady %v", got.Value, base.Value)
	}
}

func TestFailedOperationsMissEveryLatency(t *testing.T) {
	var s samples
	s.add(1)
	s.add(2)
	i := s.add(3)
	s.addFailed()
	s.addFailed()
	if got := s.median(); got != 3 {
		t.Fatalf("median with two failures = %v, want 3", got)
	}
	s.markBad(i) // the answer of op 3 turned out wrong
	if got := s.median(); got != failedLatencyMs {
		t.Fatalf("median after a wrong answer = %v, want %v", got, float64(failedLatencyMs))
	}
	if math.IsInf(s.median(), 0) {
		t.Fatal("failed latency must stay finite for the JSON result line")
	}
}
