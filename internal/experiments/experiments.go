// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic dataset registry. Each function prints a
// paper-style table or data series to the supplied writer; cmd/experiments
// exposes them on the command line and the repository's EXPERIMENTS.md
// records representative output next to the paper's reported numbers.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"nucleus/internal/dataset"
	"nucleus/internal/densest"
	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
	"nucleus/internal/localhi"
	"nucleus/internal/metrics"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/sched"
)

// Dec identifies one of the three evaluated decompositions.
type Dec int

// The three instances evaluated in the paper.
const (
	Core Dec = iota
	Truss
	N34
)

func (d Dec) String() string {
	switch d {
	case Core:
		return "(1,2)"
	case Truss:
		return "(2,3)"
	}
	return "(3,4)"
}

// Instance builds the nucleus instance of d over g.
func (d Dec) Instance(g *graph.Graph) nucleus.Instance {
	switch d {
	case Core:
		return nucleus.NewCore(g)
	case Truss:
		return nucleus.NewTruss(g)
	}
	return nucleus.NewN34(g)
}

// Fig1aKeys are the five datasets of the paper's Figure 1a.
var Fig1aKeys = []string{"fb", "sse", "tw", "wn", "wiki"}

// Fig1bKeys are the six datasets of the paper's Figure 1b.
var Fig1bKeys = []string{"ask", "fri", "hg", "ork", "slj", "wiki"}

// Fig1aConvergence prints the Kendall-Tau similarity between the
// intermediate τ of SND and the exact κ, per iteration (Figure 1a; also the
// per-decomposition convergence-rate figures of §5).
func Fig1aConvergence(w io.Writer, d Dec, keys []string, maxIter int) {
	fmt.Fprintf(w, "# Figure 1a style: %s convergence, Kendall-Tau of tau_t vs exact kappa\n", d)
	fmt.Fprintf(w, "%-6s", "iter")
	for _, k := range keys {
		fmt.Fprintf(w, "%10s", k)
	}
	fmt.Fprintln(w)
	series := make([][]float64, len(keys))
	maxLen := 0
	for i, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		exact := peel.Run(inst).Kappa
		localhi.Snd(inst, localhi.Options{MaxSweeps: maxIter, OnSweep: func(_ int, tau []int32) {
			series[i] = append(series[i], metrics.KendallTauB(tau, exact))
		}})
		if len(series[i]) > maxLen {
			maxLen = len(series[i])
		}
	}
	for it := 0; it < maxLen; it++ {
		fmt.Fprintf(w, "%-6d", it+1)
		for i := range keys {
			if it < len(series[i]) {
				fmt.Fprintf(w, "%10.4f", series[i][it])
			} else {
				fmt.Fprintf(w, "%10.4f", series[i][len(series[i])-1])
			}
		}
		fmt.Fprintln(w)
	}
}

// Fig1bScalability prints modeled speedups of the parallel local algorithm
// at several thread counts, against the partially-parallel peeling baseline
// (Figure 1b). The model uses per-cell s-degrees as work weights and the
// deterministic scheduler of internal/sched, so the series shape is
// host-independent (see the Scaling section of docs/PERFORMANCE.md on
// measuring with fewer cores than the paper).
func Fig1bScalability(w io.Writer, d Dec, keys []string, threads []int) {
	fmt.Fprintf(w, "# Figure 1b style: %s modeled speedup vs threads (dynamic chunking)\n", d)
	fmt.Fprintf(w, "%-6s", "thr")
	for _, k := range keys {
		fmt.Fprintf(w, "%10s", k)
	}
	fmt.Fprintln(w, "   (speedup of local sweeps; last row = modeled peeling-24t time ratio)")
	for _, t := range threads {
		fmt.Fprintf(w, "%-6d", t)
		for _, key := range keys {
			work := cellWork(d, key)
			fmt.Fprintf(w, "%10.2f", sched.Speedup(work, t, false, 64))
		}
		fmt.Fprintln(w)
	}
	// Peeling-24t comparison: modeled local time at max threads over modeled
	// peeling time at 24 threads (enumeration parallel, peel loop serial).
	fmt.Fprintf(w, "%-6s", "vs-p24")
	tMax := threads[len(threads)-1]
	for _, key := range keys {
		work := cellWork(d, key)
		var total int64
		for _, v := range work {
			total += v
		}
		// The local algorithms sweep ~I times over the cells; peeling visits
		// each s-clique once after enumeration. Use measured iteration count.
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		res := localhi.And(inst, localhi.Options{Notification: true})
		localTime := float64(res.WorkVisits) / float64(tMax)
		peelTime := float64(sched.PeelingModel(total, total/4, 24))
		fmt.Fprintf(w, "%10.2f", peelTime/localTime)
	}
	fmt.Fprintln(w)
}

func cellWork(d Dec, key string) []int64 {
	g := dataset.Get(key).Graph()
	inst := d.Instance(g)
	deg := inst.Degrees()
	work := make([]int64, len(deg))
	for i, dg := range deg {
		work[i] = int64(dg) + 1
	}
	return work
}

// Table3 prints dataset statistics: measured values of the synthetic
// analogues next to the paper's originals.
func Table3(w io.Writer, keys []string) {
	fmt.Fprintln(w, "# Table 3: dataset statistics (measured synthetic analogue | paper original)")
	fmt.Fprintf(w, "%-6s %-22s %12s %12s %12s %12s   %s\n",
		"key", "name", "|V|", "|E|", "|tri|", "|K4|", "paper (V,E,tri,K4)")
	for _, key := range keys {
		d := dataset.Get(key)
		s := dataset.Measure(d.Graph())
		fmt.Fprintf(w, "%-6s %-22s %12d %12d %12d %12d   %s,%s,%s,%s\n",
			d.Key, d.Name, s.V, s.E, s.Tri, s.K4,
			d.Paper.V, d.Paper.E, d.Paper.Tri, d.Paper.K4)
	}
}

// Table4Iterations prints the number of iterations SND and AND need to
// converge (the paper's iteration table; AND converges in roughly half the
// iterations of SND).
func Table4Iterations(w io.Writer, d Dec, keys []string) {
	fmt.Fprintf(w, "# Table 4 style: %s iterations to convergence\n", d)
	fmt.Fprintf(w, "%-6s %10s %10s %10s %12s\n", "key", "SND", "AND", "AND-notif", "levels-bound")
	for _, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		snd := localhi.Snd(inst, localhi.Options{})
		and := localhi.And(inst, localhi.Options{})
		andN := localhi.And(inst, localhi.Options{Notification: true})
		lv := peel.Levels(inst)
		fmt.Fprintf(w, "%-6s %10d %10d %10d %12d\n",
			key, snd.Iterations, and.Iterations, andN.Iterations, lv.Count)
	}
}

// Table5Runtimes prints wall-clock runtimes of peeling, SND and AND
// (sequential on this host) plus AND's s-clique visit counts with and
// without notification — the work the notification mechanism saves.
func Table5Runtimes(w io.Writer, d Dec, keys []string) {
	fmt.Fprintf(w, "# Table 5 style: %s runtimes (sequential wall clock on this host)\n", d)
	fmt.Fprintf(w, "%-6s %12s %12s %12s %14s %14s\n",
		"key", "peel", "SND", "AND+notif", "visits(AND)", "visits(notif)")
	for _, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)

		t0 := time.Now()
		peel.Run(inst)
		peelT := time.Since(t0)

		t0 = time.Now()
		localhi.Snd(inst, localhi.Options{})
		sndT := time.Since(t0)

		t0 = time.Now()
		notif := localhi.And(inst, localhi.Options{Notification: true})
		andT := time.Since(t0)

		plain := localhi.And(inst, localhi.Options{})
		fmt.Fprintf(w, "%-6s %12v %12v %12v %14d %14d\n",
			key, peelT.Round(time.Millisecond), sndT.Round(time.Millisecond),
			andT.Round(time.Millisecond), plain.WorkVisits, notif.WorkVisits)
	}
}

// Plateaus prints the τ trajectory of the `track` highest-degree cells
// across SND iterations (the paper's Figure 5: wide plateaus during
// convergence).
func Plateaus(w io.Writer, d Dec, key string, track int) {
	g := dataset.Get(key).Graph()
	inst := d.Instance(g)
	deg := inst.Degrees()
	// Track the highest-degree cells: they travel farthest and plateau.
	ids := make([]int32, len(deg))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool { return deg[ids[a]] > deg[ids[b]] })
	if track > len(ids) {
		track = len(ids)
	}
	tracked := ids[:track]
	fmt.Fprintf(w, "# Figure 5 style: tau trajectories of %d highest-degree %s cells on %s\n", track, d, key)
	fmt.Fprintf(w, "%-6s", "iter")
	for _, c := range tracked {
		fmt.Fprintf(w, "%8s", inst.CellLabel(c))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6d", 0)
	for _, c := range tracked {
		fmt.Fprintf(w, "%8d", deg[c])
	}
	fmt.Fprintln(w)
	localhi.Snd(inst, localhi.Options{OnSweep: func(s int, tau []int32) {
		fmt.Fprintf(w, "%-6d", s)
		for _, c := range tracked {
			fmt.Fprintf(w, "%8d", tau[c])
		}
		fmt.Fprintln(w)
	}})
}

// PlateauStats quantifies Figure 5: the fraction of cell-sweeps that are
// plateaus (no change), which is exactly the work the notification
// mechanism can skip.
func PlateauStats(w io.Writer, d Dec, keys []string) {
	fmt.Fprintf(w, "# Plateau statistics for %s: fraction of cell-sweeps with unchanged tau\n", d)
	fmt.Fprintf(w, "%-6s %10s %14s %14s %10s\n", "key", "sweeps", "cell-sweeps", "updates", "plateau%")
	for _, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		res := localhi.Snd(inst, localhi.Options{})
		cellSweeps := int64(res.Sweeps) * int64(inst.NumCells())
		plateau := 100 * float64(cellSweeps-res.Updates) / float64(cellSweeps)
		fmt.Fprintf(w, "%-6s %10d %14d %14d %9.1f%%\n",
			key, res.Sweeps, cellSweeps, res.Updates, plateau)
	}
}

// Bound compares the degree-level upper bound of Theorem 3 with observed
// SND iterations and the trivial bound |R| (§3.1).
func Bound(w io.Writer, d Dec, keys []string) {
	fmt.Fprintf(w, "# Theorem 3: convergence bound via degree levels, %s\n", d)
	fmt.Fprintf(w, "%-6s %10s %10s %12s\n", "key", "cells", "levels", "SND-iters")
	for _, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		lv := peel.Levels(inst)
		res := localhi.Snd(inst, localhi.Options{})
		fmt.Fprintf(w, "%-6s %10d %10d %12d\n", key, inst.NumCells(), lv.Count, res.Iterations)
	}
}

// Tradeoff prints the accuracy/runtime trade-off (§5): Kendall-Tau, exact
// fraction and cumulative time after every iteration of SND.
func Tradeoff(w io.Writer, d Dec, key string) {
	g := dataset.Get(key).Graph()
	inst := d.Instance(g)
	exact := peel.Run(inst).Kappa
	fmt.Fprintf(w, "# Accuracy/runtime trade-off: %s on %s\n", d, key)
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "iter", "kendall", "exact-frac", "cum-time")
	start := time.Now()
	localhi.Snd(inst, localhi.Options{OnSweep: func(s int, tau []int32) {
		kt := metrics.KendallTauB(tau, exact)
		ef := metrics.ExactFraction(tau, exact)
		fmt.Fprintf(w, "%-6d %12.4f %12.4f %12v\n", s, kt, ef, time.Since(start).Round(time.Millisecond))
	}})
}

// Query prints the query-driven estimation study (§5): mean relative error
// of κ estimates for sampled query cells as the neighborhood radius grows,
// with the fraction of the graph touched.
func Query(w io.Writer, key string, nQueries int, hopsList []int, seed int64) {
	g := dataset.Get(key).Graph()
	instCore := nucleus.NewCore(g)
	exactCore := peel.Run(instCore).Kappa
	rng := rand.New(rand.NewSource(seed))
	queries := make([]uint32, nQueries)
	for i := range queries {
		queries[i] = uint32(rng.Intn(g.N()))
	}
	fmt.Fprintf(w, "# Query-driven estimation on %s: %d random query vertices (core numbers)\n", key, nQueries)
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "hops", "mean-rel-err", "exact-frac", "region%")
	for _, hops := range hopsList {
		region := g.BFSWithin(queries, hops)
		cells := make([]int32, len(region))
		for i, v := range region {
			cells[i] = int32(v)
		}
		res := localhi.And(instCore, localhi.Options{Subset: cells, Notification: true})
		est := make([]int32, nQueries)
		want := make([]int32, nQueries)
		for i, q := range queries {
			est[i] = res.Tau[q]
			want[i] = exactCore[q]
		}
		fmt.Fprintf(w, "%-6d %12.4f %12.4f %11.2f%%\n", hops,
			metrics.MeanRelativeError(est, want), metrics.ExactFraction(est, want),
			100*float64(len(region))/float64(g.N()))
	}
}

// OrderAblation prints AND iteration counts under different processing
// orders (Theorem 4 and the paper's worst-case conjecture).
func OrderAblation(w io.Writer, d Dec, keys []string, seed int64) {
	fmt.Fprintf(w, "# AND processing-order ablation, %s: iterations to convergence\n", d)
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s\n", "key", "natural", "peel", "rev-peel", "random")
	for _, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		pr := peel.Run(inst)
		rev := make([]int32, len(pr.Order))
		for i, c := range pr.Order {
			rev[len(rev)-1-i] = c
		}
		rnd := append([]int32(nil), pr.Order...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(rnd), func(i, j int) { rnd[i], rnd[j] = rnd[j], rnd[i] })
		nat := localhi.And(inst, localhi.Options{}).Iterations
		po := localhi.And(inst, localhi.Options{Order: pr.Order}).Iterations
		rp := localhi.And(inst, localhi.Options{Order: rev}).Iterations
		ra := localhi.And(inst, localhi.Options{Order: rnd}).Iterations
		fmt.Fprintf(w, "%-6s %10d %10d %10d %10d\n", key, nat, po, rp, ra)
	}
}

// DensityQuality reproduces the framing claim of §2 (from the nucleus
// decomposition papers the evaluation builds on): the (3,4) hierarchy
// surfaces denser subgraphs than k-core and k-truss. For each
// decomposition it reports the densest leaf nucleus with at least minV
// vertices, plus the densest-subgraph baselines.
func DensityQuality(w io.Writer, key string, minV int) {
	g := dataset.Get(key).Graph()
	fmt.Fprintf(w, "# Density of discovered subgraphs on %s (leaves with >= %d vertices)\n", key, minV)
	fmt.Fprintf(w, "%-10s %10s %10s %12s %12s\n", "method", "vertices", "edges", "avg-degree", "density")
	report := func(name string, r *densest.Result) {
		fmt.Fprintf(w, "%-10s %10d %10d %12.2f %12.3f\n",
			name, len(r.Vertices), r.Edges, r.AverageDegree, r.EdgeDensity)
	}
	report("charikar", densest.Approx(g))
	report("max-core", densest.MaxCore(g))
	for _, d := range []Dec{Core, Truss, N34} {
		inst := d.Instance(g)
		kappa := peel.Run(inst).Kappa
		f := hierarchy.Build(inst, kappa)
		best := &densest.Result{}
		for _, leaf := range f.Leaves() {
			vs := f.Vertices(leaf)
			if len(vs) < minV {
				continue
			}
			r := densest.Measure(g, vs)
			if r.EdgeDensity > best.EdgeDensity {
				best = r
			}
		}
		report(d.String(), best)
	}
}

// SchedulingAblation prints the §4.4 scheduling study: static vs dynamic
// makespan (modeled) on the skewed per-cell work distribution left behind
// by the notification mechanism after the first sweeps.
func SchedulingAblation(w io.Writer, d Dec, key string, threads []int) {
	g := dataset.Get(key).Graph()
	inst := d.Instance(g)
	deg := inst.Degrees()

	// Work profile of a late sweep: only cells that still change (plus
	// their neighbors) are active; everything else was silenced by the
	// notification mechanism. Replay SND and mark the cells updated after
	// the midpoint sweep.
	var snapshots [][]int32
	localhi.Snd(inst, localhi.Options{OnSweep: func(_ int, tau []int32) {
		snapshots = append(snapshots, append([]int32(nil), tau...))
	}})
	mid := len(snapshots) / 2
	active := make([]bool, inst.NumCells())
	if mid >= 1 {
		for c := range active {
			if snapshots[mid][c] != snapshots[mid-1][c] {
				active[c] = true
				inst.VisitNeighbors(int32(c), func(n int32) bool {
					active[n] = true
					return true
				})
			}
		}
	}
	early := make([]int64, len(deg))
	late := make([]int64, len(deg))
	for c := range deg {
		early[c] = int64(deg[c]) + 1
		if active[c] {
			late[c] = int64(deg[c]) + 1
		}
	}
	fmt.Fprintf(w, "# Scheduling ablation (%s on %s): modeled speedup, early vs late sweep work\n", d, key)
	fmt.Fprintf(w, "%-6s %14s %14s %14s %14s\n", "thr",
		"early-static", "early-dynamic", "late-static", "late-dynamic")
	for _, t := range threads {
		fmt.Fprintf(w, "%-6d %14.2f %14.2f %14.2f %14.2f\n", t,
			sched.Speedup(early, t, true, 0), sched.Speedup(early, t, false, 64),
			sched.Speedup(late, t, true, 0), sched.Speedup(late, t, false, 64))
	}
}
