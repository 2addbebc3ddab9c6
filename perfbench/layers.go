package main

import (
	"time"

	"nucleus/internal/cliques"
	"nucleus/internal/dynamic"
	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
	"nucleus/internal/localhi"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/query"
)

// The traced run replays the inputs a phase generated through each
// compute layer's public functions, one span per call, so every layer is
// measured from outside without instrumenting the program.

// indexBudget is the flat-index memory budget nucleusd applies by default.
const indexBudget = 1 << 30

// timed runs fn inside a span named name (a child of parent) and returns
// its wall time in milliseconds.
func timed(tr *tracer, parent *active, name string, fn func()) float64 {
	sp := tr.begin(name, parent, 0)
	t0 := time.Now()
	fn()
	ms := msSince(t0)
	sp.end()
	return ms
}

// edgeList returns g's edges as endpoint pairs, u < v.
func edgeList(g *graph.Graph) [][2]uint32 {
	out := make([][2]uint32, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if uint32(u) < v {
				out = append(out, [2]uint32{uint32(u), v})
			}
		}
	}
	return out
}

// replayBuild rebuilds g's CSR from its edge list with graph.BuildThreads.
func replayBuild(tr *tracer, g *graph.Graph, threads int) float64 {
	edges := edgeList(g)
	root := tr.beginOp("replay.build")
	defer root.end()
	return timed(tr, root, "graph.build", func() { graph.BuildThreads(g.N(), edges, threads) })
}

// computeLayers are the metrics replayCompute reports, with their units;
// a phase prefixes them with its own name.
var computeLayers = []struct{ name, unit string }{
	{"cliques.enumerate_ms", "ms"},
	{"cliques.triangles", "count"},
	{"cliques.k4", "count"},
	{"nucleus.build_ms.truss.server", "ms"},
	{"nucleus.build_ms.truss.library", "ms"},
	{"nucleus.build_ms.n34.server", "ms"},
	{"nucleus.build_ms.n34.library", "ms"},
	{"nucleus.index_bytes.truss.server", "bytes"},
	{"nucleus.index_bytes.n34.server", "bytes"},
	{"localhi.sweep_ms", "ms"},
	{"localhi.sweeps", "count"},
	{"localhi.visits", "count"},
	{"localhi.updates_per_visit", "ratio"},
	{"localhi.budget_exact_frac", "frac"},
	{"peel.run_ms.1t", "ms"},
	{"peel.run_ms.nt", "ms"},
}

// replayCompute runs g through the compute layers: s-clique enumeration,
// both instance-construction paths (nucleus.Build as the server uses it,
// the on-the-fly constructors the library's Decompose uses), AND sweeps,
// a budgeted AND run, peeling at 1 and threads, a truss hierarchy and a
// truss estimate.
func replayCompute(tr *tracer, g *graph.Graph, threads, budget int) map[string]float64 {
	out := map[string]float64{}
	root := tr.beginOp("replay.compute")
	defer root.end()

	var ti *cliques.TriangleIndex
	var k4deg []int32
	out["cliques.enumerate_ms"] = timed(tr, root, "cliques.enumerate", func() {
		cliques.CountPerEdgeParallel(g, threads)
		ti = cliques.BuildTriangleIndexThreads(g, threads)
		k4deg = ti.K4DegreePerTriangleParallel(g, threads)
	})
	out["cliques.triangles"] = float64(ti.Len())
	var k4 int64
	for _, d := range k4deg {
		k4 += int64(d)
	}
	out["cliques.k4"] = float64(k4 / 4)

	var truss, n34 inucleus.Instance
	var trussRep, n34Rep inucleus.BuildReport
	out["nucleus.build_ms.truss.server"] = timed(tr, root, "nucleus.build", func() {
		truss, trussRep = inucleus.Build(g, inucleus.FamilyTruss, indexBudget, threads)
	})
	out["nucleus.build_ms.n34.server"] = timed(tr, root, "nucleus.build", func() {
		n34, n34Rep = inucleus.Build(g, inucleus.FamilyN34, indexBudget, threads)
	})
	out["nucleus.index_bytes.truss.server"] = float64(trussRep.IndexBytes)
	out["nucleus.index_bytes.n34.server"] = float64(n34Rep.IndexBytes)
	out["nucleus.build_ms.truss.library"] = timed(tr, root, "nucleus.new_truss", func() { inucleus.NewTruss(g) })
	out["nucleus.build_ms.n34.library"] = timed(tr, root, "nucleus.new_n34", func() { inucleus.NewN34(g) })

	var sweeps int
	var visits, updates int64
	var sweepMs float64
	var kTruss []int32
	for _, inst := range []inucleus.Instance{truss, n34} {
		var lr *localhi.Result
		sweepMs += timed(tr, root, "localhi.and", func() {
			lr = localhi.And(inst, localhi.Options{Threads: threads, Notification: true})
		})
		sweeps += lr.Sweeps
		visits += lr.WorkVisits
		updates += lr.Updates
		if inst == truss {
			kTruss = lr.Tau
		}
	}
	out["localhi.sweeps"] = float64(sweeps)
	out["localhi.visits"] = float64(visits)
	out["localhi.sweep_ms"] = sweepMs / float64(max(sweeps, 1))
	out["localhi.updates_per_visit"] = float64(updates) / float64(max(visits, 1))
	var budgeted *localhi.Result
	timed(tr, root, "localhi.and_budgeted", func() {
		budgeted = localhi.And(truss, localhi.Options{Threads: threads, Notification: true, MaxSweeps: budget})
	})
	out["localhi.budget_exact_frac"], _ = upperBoundFrac(budgeted.Tau, kTruss)

	for _, t := range []struct {
		name    string
		threads int
	}{{"peel.run_ms.1t", 1}, {"peel.run_ms.nt", threads}} {
		for _, inst := range []inucleus.Instance{truss, n34} {
			out[t.name] += timed(tr, root, "peel.run", func() { peel.RunThreads(inst, t.threads) })
		}
	}

	out["hierarchy.build_ms"] = timed(tr, root, "hierarchy.build", func() { hierarchy.Build(truss, kTruss) })
	return out
}

// replayEstimates answers truss estimates for the given query edges on g
// through package query, one call per query, and returns the median ms.
func replayEstimates(tr *tracer, g *graph.Graph, queries [][][2]uint32, threads int) float64 {
	root := tr.beginOp("replay.query")
	defer root.end()
	var inst inucleus.Instance
	timed(tr, root, "nucleus.build", func() { inst, _ = inucleus.Build(g, inucleus.FamilyTruss, indexBudget, threads) })
	var ms []float64
	for _, q := range queries {
		ms = append(ms, timed(tr, root, "query.estimate", func() { query.TrussNumbersOn(inst, g, q, 1, 0) }))
	}
	return median(ms)
}

// replayDynamic applies acknowledged batches of one graph, starting from
// the graph they were applied to, to a dynamic overlay the way the
// mutation path does: repair per batch, republish the CSR, warm re-seed
// core numbers. It returns the medians.
func replayDynamic(tr *tracer, g0 *graph.Graph, batches []ledgerBatch, threads int) map[string]float64 {
	root := tr.beginOp("replay.dynamic")
	defer root.end()
	var dyn *dynamic.Graph
	timed(tr, root, "dynamic.from_static", func() { dyn = dynamic.FromStatic(g0) })
	var repair, publish, warm, sweeps []float64
	for _, b := range batches {
		repair = append(repair, timed(tr, root, "dynamic.repair", func() {
			for _, e := range b.edits {
				if e.add {
					dyn.InsertEdge(e.u, e.v)
				} else {
					dyn.RemoveEdge(e.u, e.v)
				}
			}
		}))
		var ng *graph.Graph
		publish = append(publish, timed(tr, root, "dynamic.publish", func() { ng = dyn.Static() }))
		kappa := append([]int32(nil), dyn.CoreNumbers()...)
		var lr *localhi.Result
		warm = append(warm, timed(tr, root, "dynamic.warm", func() {
			lr = dynamic.WarmCoreNumbersOn(inucleus.NewCore(ng), ng, kappa, 0, threads)
		}))
		sweeps = append(sweeps, float64(lr.Sweeps))
	}
	return map[string]float64{
		"dynamic.repair_ms":   median(repair),
		"dynamic.publish_ms":  median(publish),
		"dynamic.warm_ms":     median(warm),
		"dynamic.warm_sweeps": median(sweeps),
	}
}

// perLayer lists the per-layer metrics of the traced run with their
// units. A layer idle in a phase by construction reports 0 there.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"explore.server.cache_hit_ratio", "ratio"},
		{"fleet.server.cache_hit_ratio", "ratio"},
		{"server.index_builds", "count"},
		{"server.index_reuses", "count"},
		{"server.index_fallbacks", "count"},
		{"server.warm_runs", "count"},
		{"server.cold_runs", "count"},
		{"server.sweeps_saved", "count"},
		{"sched.wait_ms", "ms"},
		{"sched.shed", "count"},
		{"sched.degraded", "count"},
		{"graph.build_ms", "ms"},
		{"explore.store.snapshot_ms", "ms"},
		{"explore.store.errors", "count"},
		{"fleet.store.snapshot_ms", "ms"},
		{"store.begin_ms", "ms"},
		{"store.commit_ms", "ms"},
		{"store.wal_bytes_per_edit", "bytes"},
		{"store.compactions", "count"},
		{"fleet.store.errors", "count"},
		{"dynamic.repair_ms", "ms"},
		{"dynamic.publish_ms", "ms"},
		{"dynamic.warm_ms", "ms"},
		{"dynamic.warm_sweeps", "count"},
		{"explore.localhi.budget_exact_frac", "frac"},
		{"hierarchy.build_ms", "ms"},
		{"query.estimate_ms", "ms"},
		{"replica.pull_ms", "ms"},
		{"replica.bytes_pulled", "bytes"},
		{"replica.batches_applied", "count"},
		{"replica.snapshot_installs", "count"},
		{"replica.lag_versions", "count"},
		{"router.overhead_ms", "ms"},
		{"trace.overhead_frac.explore", "frac"},
		{"trace.overhead_frac.fleet", "frac"},
		{"trace.overhead_frac.scaling", "frac"},
		{"trace.spans", "count"},
	}
	for _, phase := range []string{"explore", "scaling"} {
		for _, m := range computeLayers {
			if phase == "explore" && m.name == "localhi.budget_exact_frac" {
				continue // measured from the server's budgeted answer instead
			}
			out = append(out, struct{ name, unit string }{phase + "." + m.name, m.unit})
		}
	}
	for _, l := range selfTimeLayers {
		out = append(out, struct{ name, unit string }{"selftime." + l + "_ms", "ms"})
	}
	return out
}()

// selfTimeLayers are the span layers whose summed self time the traced
// run reports.
var selfTimeLayers = []string{
	"http", "store", "library", "replay", "graph", "cliques", "nucleus",
	"localhi", "peel", "dynamic", "hierarchy", "query",
}
