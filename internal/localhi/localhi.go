// Package localhi implements the paper's local algorithms: Snd (Algorithm 2,
// synchronous nucleus decomposition) and And (Algorithm 3, asynchronous
// nucleus decomposition with the notification mechanism of §4.2.1). Both
// iterate h-index computations on the s-degrees of cells until the τ indices
// converge to the κ indices (Theorem 3 / Lemma 2).
//
// The algorithms work against any nucleus.Instance, so the same code
// computes k-core (1,2), k-truss (2,3), the (3,4) nucleus, and the generic
// hypergraph instance. Instances that materialize their s-clique incidence
// as flat CSR arrays (nucleus.FlatIncidence, e.g. IndexedTruss/IndexedN34)
// are detected and run through a fused sweep kernel — pure array scans
// with per-worker reusable scratch and zero steady-state allocations —
// while every other instance takes the generic closure path (see fused.go
// and docs/PERFORMANCE.md). Both algorithms are parallel: cells are
// distributed to workers with either static (contiguous chunk, par.Ranges)
// or dynamic (chunks claimed off a shared cursor, par.ForEachWorker)
// scheduling, mirroring the OpenMP discussion in §4.4. Each worker keeps
// its scratch and its counters for the whole run.
//
// A converged run yields the exact decomposition (Result.Converged);
// bounding Options.MaxSweeps yields an anytime approximation with the
// one-sided guarantee τ ≥ κ. Options.Progress publishes copy-on-write τ
// snapshots with per-sweep convergence metrics while a run is still in
// flight, and Options.Stop supports cooperative cancellation and
// wall-clock deadlines — together they make the anytime property
// observable from outside the run (see docs/ANYTIME.md).
// Options.Subset restricts recomputation to a cell subset (the
// query-driven mode of package query), and Options.InitialTau warm-starts
// reconvergence after graph edits (package dynamic).
package localhi

import (
	"math"
	"runtime"
	"sync/atomic"

	"nucleus/internal/hindex"
	"nucleus/internal/nucleus"
	"nucleus/internal/par"
)

// Scheduling selects how sweep work is distributed over workers.
type Scheduling int

const (
	// Dynamic hands each idle worker the next chunk of cells (OpenMP
	// "dynamic"); the paper's choice, robust to notification-induced load
	// imbalance.
	Dynamic Scheduling = iota
	// Static pre-splits cells into one contiguous chunk per worker (OpenMP
	// "static").
	Static
)

// Options configures a local decomposition run.
type Options struct {
	// Threads is the worker count; values <= 1 run sequentially.
	Threads int
	// MaxSweeps bounds the number of sweeps; 0 means run to convergence.
	// A bounded run returns the intermediate τ, which is a valid
	// approximation (Theorem 1: τ ≥ κ pointwise, non-increasing).
	MaxSweeps int
	// Order is the cell processing order for And; nil means 0..n-1.
	// Per Theorem 4, processing in the peeling order (non-decreasing final
	// κ with peeling tie-breaks, e.g. peel.Result.Order) converges in a
	// single iteration.
	Order []int32
	// Notification enables the plateau-skipping wakeup mechanism (§4.2.1);
	// only meaningful for And.
	Notification bool
	// Scheduling selects Static or Dynamic chunking for parallel sweeps.
	Scheduling Scheduling
	// ChunkSize is the dynamic scheduling grain; 0 means 64.
	ChunkSize int
	// OnSweep, when non-nil, is invoked after every sweep with the sweep
	// index (1-based) and the current τ array (read-only; valid only for
	// the duration of the call).
	OnSweep func(sweep int, tau []int32)
	// Subset, when non-nil, restricts recomputation to the listed cells
	// (query-driven processing, §1.2); all other cells keep τ = their
	// s-degree.
	Subset []int32
	// Preserve enables the §4.4 early-exit heuristic: while recomputing a
	// cell, stop enumerating s-cliques as soon as τ of them have ρ >= τ —
	// the current index is then certainly preserved. Sound because τ only
	// decreases: H of the full list can never exceed the current τ.
	Preserve bool
	// InitialTau, when non-nil, seeds τ instead of the s-degrees. Lemma 2
	// holds for any start that is pointwise >= κ, so a tight warm start
	// (e.g. the κ of a slightly older version of the graph, bumped by the
	// number of edits) converges in far fewer sweeps. The slice is copied.
	// Values above a cell's s-degree are clamped to it (H can never exceed
	// the s-clique count, so the clamp is free and keeps Preserve sound).
	InitialTau []int32
	// Progress, when non-nil, receives a copy-on-write snapshot of τ plus
	// per-sweep convergence metrics after every sweep, and a Final snapshot
	// when the run ends (see Progress). Publishing runs between sweeps on
	// the coordinating goroutine, so the fused kernels stay untouched.
	Progress *Progress
	// Stop, when non-nil, is polled between sweeps; once it returns true
	// the run ends after the current sweep and returns the intermediate τ
	// (still a valid approximation: τ ≥ κ) with Result.Stopped set.
	// Cooperative cancellation and wall-clock budgets hook in here.
	Stop func() bool
}

// Result reports the outcome of a local decomposition run.
type Result struct {
	// Tau holds the final τ indices; equal to κ when Converged.
	Tau []int32
	// Iterations counts sweeps that updated at least one τ index. This
	// matches the paper's iteration counts (e.g. SND on the Figure 2 toy
	// graph takes 2 iterations).
	Iterations int
	// Sweeps counts all sweeps performed, including the final no-change
	// sweep that detects convergence and any verification sweeps.
	Sweeps int
	// Converged reports whether τ = κ was certified.
	Converged bool
	// Stopped reports that Options.Stop ended the run early (cancellation
	// or a deadline), as opposed to convergence or an exhausted MaxSweeps
	// budget.
	Stopped bool
	// Updates is the total number of τ decrements applied.
	Updates int64
	// SkippedCells counts cell visits avoided by the notification
	// mechanism.
	SkippedCells int64
	// WorkVisits counts s-clique visits performed (the dominant cost).
	WorkVisits int64
	// SweepUpdates[i] is the number of τ decrements in sweep i+1. The
	// update rate decays toward zero as τ approaches κ, giving a
	// ground-truth-free convergence signal for accuracy/runtime decisions
	// (the quality metric of the paper's §1.2).
	SweepUpdates []int64
}

// UpdateRate returns SweepUpdates[sweep-1] divided by the cell count: the
// fraction of cells still changing in that sweep (1-based).
func (r *Result) UpdateRate(sweep int, cells int) float64 {
	if sweep < 1 || sweep > len(r.SweepUpdates) || cells == 0 {
		return 0
	}
	return float64(r.SweepUpdates[sweep-1]) / float64(cells)
}

func (o Options) threads() int {
	if o.Threads <= 0 {
		return 1
	}
	return o.Threads
}

func (o Options) chunk() int {
	if o.ChunkSize <= 0 {
		return 64
	}
	return o.ChunkSize
}

// Snd runs the synchronous algorithm: every sweep computes τ_{t+1} for all
// cells from the frozen τ_t of the previous sweep (Jacobi iteration).
// Instances exposing flat incidence arrays (nucleus.FlatIncidence) run the
// fused zero-allocation sweep kernel; everything else takes the generic
// closure-based path.
func Snd(inst nucleus.Instance, opts Options) *Result {
	n := inst.NumCells()
	tau := initialTau(inst, opts)
	prev := make([]int32, n)
	res := &Result{}
	cells := sweepCells(n, opts)
	sw := newSweeper(len(cells), opts)
	fa, flat := flatOf(inst)

	for {
		copy(prev, tau)
		sum := sw.sweep(func(sc *sweepScratch, lo, hi int) (k counts) {
			for i := lo; i < hi; i++ {
				c := cells[i]
				var h int32
				var v int64
				switch {
				case flat && opts.Preserve:
					h, v = computeTauFlat(fa, c, prev, sc, prev[c], true, false)
				case flat:
					h, v = computeTauFlat(fa, c, prev, sc, 0, false, false)
				case opts.Preserve:
					h, v = computeTauPreserve(inst, c, prev, sc, prev[c], false)
				default:
					h, v = computeTau(inst, c, prev, sc)
				}
				k.visits += v
				if h != prev[c] {
					k.updates++
				}
				tau[c] = h
			}
			return k
		})
		updates := sum.updates
		res.Sweeps++
		res.WorkVisits += sum.visits
		res.SweepUpdates = append(res.SweepUpdates, updates)
		if updates > 0 {
			res.Iterations++
			res.Updates += updates
		}
		if opts.OnSweep != nil {
			opts.OnSweep(res.Sweeps, tau)
		}
		if opts.Progress != nil {
			opts.Progress.observe(res.Sweeps, tau, updates, false, false)
		}
		if updates == 0 {
			res.Converged = true
			break
		}
		if opts.MaxSweeps > 0 && res.Sweeps >= opts.MaxSweeps {
			break
		}
		if opts.Stop != nil && opts.Stop() {
			res.Stopped = true
			break
		}
	}
	res.Tau = tau
	if opts.Progress != nil {
		opts.Progress.finish(res)
	}
	return res
}

// And runs the asynchronous algorithm: cells read the freshest available τ
// values (Gauss–Seidel iteration), optionally skipping cells whose
// neighborhood is unchanged (notification mechanism).
func And(inst nucleus.Instance, opts Options) *Result {
	res, _ := and(inst, opts)
	return res
}

// and is And, also returning the run's sweeper so tests can reconcile its
// per-worker counters with the Result totals.
func and(inst nucleus.Instance, opts Options) (*Result, *sweeper) {
	n := inst.NumCells()
	tau := initialTau(inst, opts)
	res := &Result{}
	cells := sweepCells(n, opts)
	sw := newSweeper(len(cells), opts)
	concurrent := opts.threads() > 1
	fa, flat := flatOf(inst)

	var active []int32
	if opts.Notification {
		active = make([]int32, n)
		for _, c := range cells {
			active[c] = 1
		}
	}

	runSweep := func(ignoreFlags bool) (updates int64) {
		sum := sw.sweep(func(sc *sweepScratch, lo, hi int) (k counts) {
			for i := lo; i < hi; i++ {
				c := cells[i]
				if active != nil && !ignoreFlags {
					if atomic.LoadInt32(&active[c]) == 0 {
						k.skipped++
						continue
					}
					// Clear before computing: a notification that arrives
					// mid-compute is preserved for the next sweep, so no
					// wakeup is lost.
					atomic.StoreInt32(&active[c], 0)
				}
				var h int32
				var v int64
				switch {
				case flat && opts.Preserve:
					h, v = computeTauFlat(fa, c, tau, sc, loadTau(concurrent, tau, c), true, concurrent)
				case flat:
					h, v = computeTauFlat(fa, c, tau, sc, 0, false, concurrent)
				case opts.Preserve:
					h, v = computeTauPreserve(inst, c, tau, sc, loadTau(concurrent, tau, c), concurrent)
				case concurrent:
					h, v = computeTauAtomic(inst, c, tau, sc)
				default:
					h, v = computeTau(inst, c, tau, sc)
				}
				k.visits += v
				old := loadTau(concurrent, tau, c)
				if h < old {
					storeTau(concurrent, tau, c, h)
					k.updates++
					if active != nil {
						if flat {
							notifyNeighborsFlat(fa, c, active)
						} else {
							inst.VisitNeighbors(c, func(d int32) bool {
								atomic.StoreInt32(&active[d], 1)
								return true
							})
						}
					}
				}
			}
			return k
		})
		updates = sum.updates
		res.Sweeps++
		res.WorkVisits += sum.visits
		res.SkippedCells += sum.skipped
		res.SweepUpdates = append(res.SweepUpdates, updates)
		if updates > 0 {
			res.Iterations++
			res.Updates += updates
		}
		if opts.OnSweep != nil {
			opts.OnSweep(res.Sweeps, tau)
		}
		if opts.Progress != nil {
			opts.Progress.observe(res.Sweeps, tau, updates, false, false)
		}
		return updates
	}

	// Every sweep — notification, certification and repair alike — counts
	// against the budget, so a bounded run can never report
	// Sweeps > MaxSweeps. The check sits at the loop head: when the budget
	// is exhausted the run stops uncertified and returns the intermediate
	// τ, which is still a valid approximation (τ ≥ κ, Theorem 1).
	for {
		if opts.MaxSweeps > 0 && res.Sweeps >= opts.MaxSweeps {
			break
		}
		// Checked only after the first sweep (like Snd): a stop signal can
		// end a run early, but never before there is an intermediate τ
		// worth returning.
		if res.Sweeps > 0 && opts.Stop != nil && opts.Stop() {
			res.Stopped = true
			break
		}
		updates := runSweep(false)
		if updates == 0 {
			if active == nil {
				res.Converged = true
				break
			}
			if opts.MaxSweeps > 0 && res.Sweeps >= opts.MaxSweeps {
				// No budget left for certification: the plateau is very
				// likely the fixpoint, but without the certifying sweep we
				// must not claim convergence.
				break
			}
			// Certify the fixpoint with one full sweep that ignores the
			// notification flags; in the benign-race worst case this
			// degenerates to a synchronous sweep (§4.2.1). A non-zero
			// certification sweep re-enters the loop (and the budget check).
			if runSweep(true) == 0 {
				res.Converged = true
				break
			}
		}
	}
	res.Tau = tau
	if opts.Progress != nil {
		opts.Progress.finish(res)
	}
	return res, sw
}

// computeTau evaluates the update operator U for cell c against the given τ
// array: H over { min τ(co-members of S) : S ∋ c }. Returns the new value
// and the number of s-clique visits.
func computeTau(inst nucleus.Instance, c int32, tau []int32, sc *sweepScratch) (int32, int64) {
	vals := sc.vals[:0]
	var visits int64
	inst.VisitSCliques(c, func(others []int32) bool {
		rho := int32(math.MaxInt32)
		for _, d := range others {
			if tau[d] < rho {
				rho = tau[d]
			}
		}
		vals = append(vals, rho)
		visits++
		return true
	})
	sc.vals = vals
	return hindex.LinearInto(vals, &sc.cnt), visits
}

// computeTauAtomic is computeTau with atomic reads, for concurrent And
// sweeps where other workers may be lowering τ entries. Stale (higher)
// reads are benign: τ stays an upper bound of κ (Theorem 1) and later
// sweeps repair them.
func computeTauAtomic(inst nucleus.Instance, c int32, tau []int32, sc *sweepScratch) (int32, int64) {
	vals := sc.vals[:0]
	var visits int64
	inst.VisitSCliques(c, func(others []int32) bool {
		rho := int32(math.MaxInt32)
		for _, d := range others {
			if v := atomic.LoadInt32(&tau[d]); v < rho {
				rho = v
			}
		}
		vals = append(vals, rho)
		visits++
		return true
	})
	sc.vals = vals
	return hindex.LinearInto(vals, &sc.cnt), visits
}

// computeTauPreserve is computeTau with the §4.4 early-exit: once cur
// s-cliques with ρ >= cur have been seen, the current index is preserved
// and enumeration stops. Monotonicity makes this sound — the h-index of
// the full ρ list cannot exceed cur, and cur supporting s-cliques (each
// with ρ >= cur) certify that it equals cur. Cells already at zero skip
// enumeration entirely.
func computeTauPreserve(inst nucleus.Instance, c int32, tau []int32, sc *sweepScratch, cur int32, concurrent bool) (int32, int64) {
	if cur <= 0 {
		return 0, 0
	}
	vals := sc.vals[:0]
	var visits int64
	support := int32(0)
	preserved := false
	inst.VisitSCliques(c, func(others []int32) bool {
		rho := int32(math.MaxInt32)
		for _, d := range others {
			var v int32
			if concurrent {
				v = atomic.LoadInt32(&tau[d])
			} else {
				v = tau[d]
			}
			if v < rho {
				rho = v
			}
		}
		visits++
		if rho >= cur {
			support++
			if support >= cur {
				preserved = true
				return false
			}
		}
		vals = append(vals, rho)
		return true
	})
	sc.vals = vals
	if preserved {
		return cur, visits
	}
	return hindex.LinearInto(vals, &sc.cnt), visits
}

func loadTau(concurrent bool, tau []int32, c int32) int32 {
	if concurrent {
		return atomic.LoadInt32(&tau[c])
	}
	return tau[c]
}

func storeTau(concurrent bool, tau []int32, c int32, v int32) {
	if concurrent {
		atomic.StoreInt32(&tau[c], v)
		return
	}
	tau[c] = v
}

// initialTau builds the starting τ array: the s-degrees, or the caller's
// warm start clamped to them.
func initialTau(inst nucleus.Instance, opts Options) []int32 {
	tau := inst.Degrees()
	if opts.InitialTau == nil {
		return tau
	}
	if len(opts.InitialTau) != len(tau) {
		panic("localhi: InitialTau length mismatch")
	}
	for i, v := range opts.InitialTau {
		if v < tau[i] {
			tau[i] = v
		}
	}
	return tau
}

// sweepCells resolves the cell visit order for a run.
func sweepCells(n int, opts Options) []int32 {
	if opts.Subset != nil {
		return opts.Subset
	}
	if opts.Order != nil {
		return opts.Order
	}
	cells := make([]int32, n)
	for i := range cells {
		cells[i] = int32(i)
	}
	return cells
}

// counts tallies the work of a chunk, a sweep or a whole run: τ
// decrements, s-clique visits and cells skipped by notification.
type counts struct {
	updates, visits, skipped int64
}

func (k *counts) add(o counts) {
	k.updates += o.updates
	k.visits += o.visits
	k.skipped += o.skipped
}

// worker is one sweep worker's state for a whole run: its scratch, grown
// once to the longest row and reused by every later cell and sweep, and
// its counts summed over the run. Only worker w touches workers[w] during
// a sweep, and the coordinator reads the counts only after the sweep's
// barrier, so nothing here is atomic. The padding keeps neighbouring
// workers, whose scratch headers change on every cell, off each other's
// cache lines.
type worker struct {
	sc    sweepScratch
	total counts
	_     [64]byte
}

// sweeper splits the sweeps of one run over the shared parallel loops of
// internal/par: par.ForEachWorker hands out chunk-sized ranges for Dynamic
// scheduling, par.Ranges one contiguous range per worker for Static. A
// single thread runs inline on the calling goroutine.
type sweeper struct {
	n, threads, chunk int
	static            bool
	workers           []worker
	done              counts // the workers' totals after the last sweep
}

func newSweeper(n int, opts Options) *sweeper {
	t := max(min(opts.threads(), n), 1)
	return &sweeper{
		n:       n,
		threads: t,
		chunk:   opts.chunk(),
		static:  opts.Scheduling == Static,
		workers: make([]worker, t),
	}
}

// sweep runs body over [0, n) split into ranges, folds each range's counts
// into its worker's total — one add per range, never one per cell — and
// returns the counts of this sweep.
func (s *sweeper) sweep(body func(sc *sweepScratch, lo, hi int) counts) counts {
	run := func(w, lo, hi int) {
		wk := &s.workers[w]
		wk.total.add(body(&wk.sc, lo, hi))
	}
	if s.static {
		par.Ranges(s.n, s.threads, run)
	} else {
		par.ForEachWorker(s.n, s.chunk, s.threads, run)
	}
	all := s.totals()
	k := counts{all.updates - s.done.updates, all.visits - s.done.visits, all.skipped - s.done.skipped}
	s.done = all
	return k
}

// totals sums the workers' counts over the run so far.
func (s *sweeper) totals() counts {
	var all counts
	for i := range s.workers {
		all.add(s.workers[i].total)
	}
	return all
}

// DefaultThreads returns a sensible worker count for parallel runs.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }
