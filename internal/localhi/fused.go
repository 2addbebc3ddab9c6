package localhi

import (
	"math"
	"sync/atomic"

	"nucleus/internal/hindex"
	"nucleus/internal/nucleus"
)

// The fused sweep kernel: when an instance exposes its s-clique incidence
// as flat CSR arrays (nucleus.FlatIncidence — the IndexedTruss/IndexedN34
// instances), the per-cell update runs as a pure array scan with no
// closure dispatch, no adjacency intersections, and no per-cell
// allocations: ρ-gather, clamped counting h-index into per-worker
// reusable scratch, and the §4.4 Preserve early-exit are fused into one
// loop. The generic closure-based path below remains the correctness
// reference for arbitrary instances.

// sweepScratch is the per-worker scratch of a sweep: the gathered ρ list
// and the counting array of the linear h-index. Both grow on demand and
// are reused across cells and sweeps, so the steady state allocates
// nothing.
type sweepScratch struct {
	vals []int32
	cnt  []int32
}

// flatArrays caches the FlatIncidenceArrays of an instance for the
// duration of a run.
type flatArrays struct {
	offs []int64
	mem  []int32
	co   int64
}

// flatOf extracts the flat incidence arrays if the instance has them.
func flatOf(inst nucleus.Instance) (flatArrays, bool) {
	f, ok := inst.(nucleus.FlatIncidence)
	if !ok {
		return flatArrays{}, false
	}
	offs, mem, co := f.FlatIncidenceArrays()
	if co < 1 || len(offs) == 0 {
		return flatArrays{}, false
	}
	return flatArrays{offs: offs, mem: mem, co: int64(co)}, true
}

// computeTauFlat evaluates the update operator for cell c against tau by
// scanning the cell's flat incidence row. It fuses the three generic
// variants: preserve enables the §4.4 early-exit against cur (the cell's
// current index), and par uses atomic τ reads for concurrent asynchronous
// sweeps (stale higher reads are benign, exactly as in computeTauAtomic).
// Returns the new index and the number of s-clique visits.
//
//nucleus:noalloc
func computeTauFlat(fa flatArrays, c int32, tau []int32, sc *sweepScratch, cur int32, preserve, par bool) (int32, int64) {
	if preserve && cur <= 0 {
		return 0, 0
	}
	mem := fa.mem
	vals := sc.vals[:0]
	var visits int64
	support := int32(0)
	for p, end := fa.offs[c], fa.offs[c+1]; p < end; p += fa.co {
		rho := int32(math.MaxInt32)
		for q := p; q < p+fa.co; q++ {
			var v int32
			if par {
				v = atomic.LoadInt32(&tau[mem[q]])
			} else {
				v = tau[mem[q]]
			}
			if v < rho {
				rho = v
			}
		}
		visits++
		if preserve && rho >= cur {
			support++
			if support >= cur {
				// cur s-cliques with ρ >= cur certify the index is kept;
				// stop without scanning the rest of the row.
				sc.vals = vals
				return cur, visits
			}
		}
		vals = append(vals, rho) //nucleus:lint-ignore noalloc appends into per-worker scratch retained across cells; grows to the longest row once, then amortized zero
	}
	sc.vals = vals
	return hindex.LinearInto(vals, &sc.cnt), visits
}

// notifyNeighborsFlat wakes every co-member cell of c's s-cliques by
// scanning the flat row directly (the fused counterpart of the
// VisitNeighbors closure in And's notification mechanism). A flag that is
// already set is only read, never rewritten: the shared flag lines then
// stay clean in the other workers' caches. No wakeup is lost, because the
// owner clears its flag before it reads τ, so a set flag seen here
// belongs to a compute that will read the τ this worker just lowered.
//
//nucleus:noalloc
func notifyNeighborsFlat(fa flatArrays, c int32, active []int32) {
	for _, d := range fa.mem[fa.offs[c]:fa.offs[c+1]] {
		if atomic.LoadInt32(&active[d]) == 0 {
			atomic.StoreInt32(&active[d], 1)
		}
	}
}
