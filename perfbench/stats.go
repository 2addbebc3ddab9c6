package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a _tail metric may report, lowest
// first. The reported tail is the highest rung, up to the metric's own
// cap, with at least minBeyond samples above it. Each metric's cap is
// the rung its sample count reaches on every run, so the reported
// percentile does not jump when a faster or slower host crosses a decade
// of samples. The ladder stops at p99: over a window of a few seconds on
// a small shared host, p99.9 of the lookups measured the host's hiccups
// more than the program (its spread across seeds was twice p99's).
var tailLadder = []float64{50, 90, 99}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of sorted values by
// linear interpolation between closest ranks. sorted must be non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of values, or 0 for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	return percentile(s, 50)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// tail is a _tail metric: the value at Percentile over Count samples,
// with Beyond samples above it. A block tail is the median over Blocks
// blocks, and Beyond counts the samples beyond it in one block.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Count      int     `json:"count"`
	Blocks     int     `json:"blocks,omitempty"`
	Beyond     int     `json:"beyond"`
}

// tailOf applies the tail rule: the highest ladder percentile up to
// maxP that has at least minBeyond samples beyond it. ok is false when
// even the lowest rung has fewer than minBeyond samples beyond it; then
// nothing is reported.
func tailOf(values []float64, maxP float64) (t tail, ok bool) {
	n := len(values)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
		if p <= maxP && beyond >= minBeyond {
			s := sortedCopy(values)
			return tail{Value: percentile(s, p), Percentile: p, Count: n, Beyond: beyond}, true
		}
	}
	return tail{Count: n}, false
}

// blockTailOf is the tail the _tail metrics report: the median, over
// consecutive blocks of samples, of each block's tail. The percentile is
// the highest ladder rung up to maxP at which a block of blockSize(p)
// samples has minBeyond beyond it and the samples fill at least minBlocks
// such blocks; the samples are split into as many equal blocks as fit, in
// the order they were taken. A pooled percentile moves with any slow
// spell of a shared host that covers a percent of the run; the median
// over blocks moves only when the tail of most of the run does. ok is
// false when not even the lowest rung fills minBlocks blocks.
func blockTailOf(values []float64, maxP float64) (t tail, ok bool) {
	n := len(values)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		blocks := n / blockSize(p)
		if p > maxP || blocks < minBlocks {
			continue
		}
		per := make([]float64, blocks)
		for b := range per {
			lo, hi := b*n/blocks, (b+1)*n/blocks
			bt, _ := tailOf(values[lo:hi], p)
			per[b] = bt.Value
		}
		return tail{Value: median(per), Percentile: p, Count: n, Blocks: blocks,
			Beyond: int(math.Floor(float64(n/blocks)*(100-p)/100 + 1e-9))}, true
	}
	return tail{Count: n}, false
}

// minBlocks is the fewest blocks a block tail is the median of.
const minBlocks = 2

// blockSize is the fewest samples with minBeyond beyond percentile p.
func blockSize(p float64) int {
	return int(math.Ceil(float64(minBeyond)*100/(100-p) - 1e-9))
}

// samples is a latency distribution in which failed operations count as
// missing every latency: their sample is replaced by failedLatencyMs.
type samples struct {
	lat []float64
	bad []bool
}

// failedLatencyMs is the latency a failed or wrong operation counts as:
// the client timeout, beyond any limit a user would accept.
const failedLatencyMs = 30000

// add records one operation's latency and returns its index, so a later
// correctness check can mark it failed.
func (s *samples) add(ms float64) int {
	s.lat = append(s.lat, ms)
	s.bad = append(s.bad, false)
	return len(s.lat) - 1
}

// addFailed records an operation that failed outright.
func (s *samples) addFailed() int {
	i := s.add(failedLatencyMs)
	s.bad[i] = true
	return i
}

// markBad records that the operation at index i gave a wrong answer.
func (s *samples) markBad(i int) {
	s.bad[i] = true
}

func (s *samples) len() int { return len(s.lat) }

// values returns the latencies with failed operations at failedLatencyMs.
func (s *samples) values() []float64 {
	out := make([]float64, len(s.lat))
	for i, v := range s.lat {
		if s.bad[i] {
			v = failedLatencyMs
		}
		out[i] = v
	}
	return out
}

func (s *samples) median() float64 { return median(s.values()) }

func (s *samples) tail(maxP float64) (tail, bool) { return blockTailOf(s.values(), maxP) }
