package main

import (
	"fmt"
	"net/http"
	"net/url"
	"time"

	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/server"
)

// The explore phase is the cold analytics path: every session generates a
// new graph version, so every decomposition misses the result cache and
// cliques, nucleus, localhi, peel and sched do the work.

const (
	exploreGraph = "explore"
	// budgetSweeps is the sweep budget of the anytime truss query.
	budgetSweeps = 3
)

var (
	exploreDecs = []string{"core", "truss", "n34"}
	exploreAlgs = []string{"and", "snd", "peel"}
)

type exploreEnv struct {
	cfg  runConfig
	tr   *tracer
	node *node
	c    *client
	next int // next session index
}

// exploreStats accumulates one measured window.
type exploreStats struct {
	ops       int
	timedSec  float64
	ingest    samples
	jobTruss  samples
	jobN34    samples
	jobAll    []float64 // every job's latency, for the tracing overhead
	schedWait []float64
	exactFrac []float64
	graphs    []*graph.Graph
}

func setupExplore(cfg runConfig, tr *tracer) (*exploreEnv, error) {
	dir, err := freshDir(cfg.dataDir, "explore")
	if err != nil {
		return nil, err
	}
	n, err := startNode(dir, tr, server.Config{Workers: cfg.nproc, JobThreads: cfg.nproc})
	if err != nil {
		return nil, err
	}
	ex := &exploreEnv{cfg: cfg, tr: tr, node: n, c: newClient()}
	// Warm-up: one graph of the session family and one job over it.
	body := jsonBody(cfg.family.explore.request(subSeed(cfg.seed, "explore-warmup", 0)))
	if status, err := ex.c.do("POST", n.url()+"/graphs/warmup/generate", body, nil); err != nil || status != http.StatusCreated {
		ex.close()
		return nil, fmt.Errorf("warm-up generate: status %d, %v", status, err)
	}
	if _, _, err := ex.job("warmup", "core", "and"); err != nil {
		ex.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return ex, nil
}

func (ex *exploreEnv) close() {
	ex.c.close()
	ex.node.close()
}

// jobDone is the `done` event of a job stream.
type jobDone struct {
	State string `json:"state"`
	Error string `json:"error"`
}

// job submits one decomposition and waits for its SSE done event. It
// returns the job id, the final state and any transport error.
func (ex *exploreEnv) job(graphName, dec, alg string) (id, state string, err error) {
	var view struct {
		ID string `json:"id"`
	}
	body := jsonBody(map[string]any{"graph": graphName, "decomposition": dec, "algorithm": alg, "threads": ex.cfg.nproc})
	status, err := ex.c.do("POST", ex.node.url()+"/jobs", body, &view)
	if err != nil {
		return "", "", err
	}
	if reason := statusFailure("job submit", status); reason != "" {
		return "", reason, nil
	}
	var done jobDone
	status, err = ex.c.awaitDone(ex.node.url()+"/jobs/"+url.PathEscape(view.ID)+"/stream", &done)
	if err != nil {
		return view.ID, "", err
	}
	if reason := statusFailure("job stream", status); reason != "" {
		return view.ID, reason, nil
	}
	return view.ID, done.State, nil
}

// pendingJob is a job answer awaiting its correctness check.
type pendingJob struct {
	id, dec, alg string
	latMs        float64
	sample       *samples
	idx          int
}

// session runs one exploration session. The timed part is the five user
// steps; the checks after it are untimed.
func (ex *exploreEnv) session(st *exploreStats, tl *tally) {
	i := ex.next
	ex.next++
	seed := subSeed(ex.cfg.seed, "explore", i)
	fam := ex.cfg.family
	base := ex.node.url()
	start := time.Now()

	// 1. Generate a fresh graph: a new version, so the cache is cold.
	tl.attempt()
	sp := ex.tr.beginOp("http.generate")
	if sp != nil {
		sp.ingest = true
	}
	ex.tr.setCurrent(sp)
	t0 := time.Now()
	var gv struct {
		N int   `json:"n"`
		M int64 `json:"m"`
	}
	status, err := ex.c.do("POST", base+"/graphs/"+exploreGraph+"/generate", jsonBody(fam.explore.request(seed)), &gv)
	lat := msSince(t0)
	sp.end()
	ex.tr.setCurrent(nil)
	reason := opFailure("explore generate", status, err)
	if reason == "" && status != http.StatusCreated {
		reason = fmt.Sprintf("explore generate: status %d, want 201", status)
	}
	if reason != "" {
		tl.fail(reason)
		st.ingest.addFailed()
		st.timedSec += time.Since(start).Seconds()
		return
	}
	st.ingest.add(lat)
	st.ops++

	// 2. One budgeted anytime truss query.
	tl.attempt()
	var budgeted struct {
		Tau []int32 `json:"tau"`
	}
	q := fmt.Sprintf("%s/graphs/%s/decompose?dec=truss&maxSweeps=%d&tau=true", base, exploreGraph, budgetSweeps)
	sp = ex.tr.beginOp("http.decompose")
	status, err = ex.c.do("GET", q, nil, &budgeted)
	sp.end()
	budgetOK := false
	if reason := opFailure("explore budgeted truss", status, err); reason != "" {
		tl.fail(reason)
	} else {
		st.ops++
		budgetOK = true
	}

	// 3. Every decomposition with every algorithm, each awaited on SSE.
	var pending []pendingJob
	for _, dec := range exploreDecs {
		for _, alg := range exploreAlgs {
			tl.attempt()
			sp := ex.tr.beginOp("http.job_" + dec)
			t0 := time.Now()
			id, state, err := ex.job(exploreGraph, dec, alg)
			lat := msSince(t0)
			sp.end()
			var smp *samples
			switch dec {
			case "truss":
				smp = &st.jobTruss
			case "n34":
				smp = &st.jobN34
			}
			if err != nil || state != "done" {
				tl.fail(fmt.Sprintf("explore job %s/%s: state %q, %v", dec, alg, state, err))
				if smp != nil {
					smp.addFailed()
				}
				continue
			}
			st.ops++
			st.jobAll = append(st.jobAll, lat)
			p := pendingJob{id: id, dec: dec, alg: alg, latMs: lat, sample: smp}
			if smp != nil {
				p.idx = smp.add(lat)
			}
			pending = append(pending, p)
		}
	}

	// 4. One truss hierarchy.
	tl.attempt()
	var forest []hierNode
	sp = ex.tr.beginOp("http.hierarchy")
	status, err = ex.c.do("GET", base+"/graphs/"+exploreGraph+"/hierarchy?dec=truss", nil, &forest)
	sp.end()
	hierOK := false
	if reason := opFailure("explore hierarchy", status, err); reason != "" {
		tl.fail(reason)
	} else {
		st.ops++
		hierOK = true
	}
	st.timedSec += time.Since(start).Seconds()

	// Untimed: check every answer against the sequential peel on the
	// same graph, regenerated locally by the same generator.
	g := fam.explore.build(seed)
	st.graphs = append(st.graphs, g)
	if g.N() != gv.N || g.M() != gv.M {
		tl.fail("explore generate: graph differs from the local generator")
		return
	}
	oracle := map[string][]int32{
		"core":  peel.Run(inucleus.NewCore(g)).Kappa,
		"truss": peel.Run(inucleus.NewTruss(g)).Kappa,
		"n34":   peel.Run(inucleus.NewN34(g)).Kappa,
	}
	if budgetOK {
		frac, ok := upperBoundFrac(budgeted.Tau, oracle["truss"])
		if !ok {
			tl.fail("explore budgeted truss: τ is not a pointwise upper bound of κ")
		}
		st.exactFrac = append(st.exactFrac, frac)
	}
	for _, p := range pending {
		var res struct {
			Kappa      []int32 `json:"kappa"`
			DurationMs float64 `json:"durationMs"`
		}
		status, err := ex.c.do("GET", base+"/jobs/"+url.PathEscape(p.id)+"/result?kappa=true", nil, &res)
		if err != nil || status != http.StatusOK || !equalKappa(res.Kappa, oracle[p.dec]) {
			tl.fail(fmt.Sprintf("explore job %s/%s: κ differs from peel.Run", p.dec, p.alg))
			if p.sample != nil {
				p.sample.markBad(p.idx)
			}
			continue
		}
		st.schedWait = append(st.schedWait, p.latMs-res.DurationMs)
	}
	if hierOK {
		want := hierarchy.Build(inucleus.NewTruss(g), oracle["truss"]).NumNodes()
		if got := countNodes(forest); got != want {
			tl.fail(fmt.Sprintf("explore hierarchy: %d nodes, local hierarchy.Build has %d", got, want))
		}
	}
}

// hierNode is one node of the hierarchy endpoint's JSON forest.
type hierNode struct {
	K        int32      `json:"k"`
	Cells    int        `json:"cells"`
	Children []hierNode `json:"children"`
}

func countNodes(forest []hierNode) int {
	n := 0
	for _, h := range forest {
		n += 1 + countNodes(h.Children)
	}
	return n
}

// opFailure folds a transport error into the status classification.
func opFailure(op string, status int, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", op, err)
	}
	return statusFailure(op, status)
}

func equalKappa(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// upperBoundFrac checks τ ≥ κ pointwise (Theorem 1) and returns the
// fraction of cells where the budgeted τ is already exact.
func upperBoundFrac(tau, kappa []int32) (float64, bool) {
	if len(tau) != len(kappa) {
		return 0, false
	}
	exact := 0
	for i := range tau {
		if tau[i] < kappa[i] {
			return 0, false
		}
		if tau[i] == kappa[i] {
			exact++
		}
	}
	if len(tau) == 0 {
		return 1, true
	}
	return float64(exact) / float64(len(tau)), true
}

// window runs whole sessions until st's timed part has grown by seconds.
func (ex *exploreEnv) window(st *exploreStats, seconds float64, tl *tally) {
	for target := st.timedSec + seconds; st.timedSec < target; {
		ex.session(st, tl)
	}
}

// explorePhase accumulates the explore phase's slices: untraced ones into
// plain, traced ones into traced, each with its /stats delta.
type explorePhase struct {
	cfg                     runConfig
	tr                      *tracer
	tl                      *tally
	env                     *exploreEnv
	plain, traced           exploreStats
	plainDelta, tracedDelta nodeStats
}

func setupExplorePhase(cfg runConfig, tr *tracer, tl *tally) (phase, error) {
	env, err := setupExplore(cfg, tr)
	if err != nil {
		return nil, err
	}
	return &explorePhase{cfg: cfg, tr: tr, tl: tl, env: env}, nil
}

func (p *explorePhase) close() { p.env.close() }

func (p *explorePhase) measure(seconds float64, traced bool) error {
	st, delta := &p.plain, &p.plainDelta
	if traced {
		st, delta = &p.traced, &p.tracedDelta
	}
	before, err := p.env.c.stats(p.env.node.url())
	if err != nil {
		return err
	}
	p.env.window(st, seconds, p.tl)
	after, err := p.env.c.stats(p.env.node.url())
	if err != nil {
		return err
	}
	*delta = delta.add(after.sub(before))
	return nil
}

func (p *explorePhase) finish(pr *phaseResult) error {
	fam := p.cfg.family
	pr.facts["clients"] = 1
	pr.facts["jobThreads"] = p.cfg.nproc
	pr.facts["graphs"] = fam.explore.label
	pr.facts["flush"] = "FS store: every snapshot fsynced before the 201"
	pr.facts["sessions"] = p.env.next
	if !p.cfg.trace {
		st, d := &p.plain, p.plainDelta
		pr.facts["cacheHitShare"] = ratio(d.Cache.Hits, d.Cache.Lookups)
		pr.e2e["explore_ops_per_s"] = float64(st.ops) / st.timedSec
		pr.e2e["ingest_p50_ms"] = st.ingest.median()
		pr.e2e["job_truss_p50_ms"] = st.jobTruss.median()
		pr.e2e["job_n34_p50_ms"] = st.jobN34.median()
		return nil
	}

	// Traced run: /stats deltas and spans of the traced half, then a
	// replay of its sessions' inputs through the layers.
	st, d, tr := &p.traced, p.tracedDelta, p.tr
	L := pr.layers
	L["explore.server.cache_hit_ratio"] = ratio(d.Cache.Hits, d.Cache.Lookups)
	L["server.index_builds"] = float64(d.Index.Builds)
	L["server.index_reuses"] = float64(d.Index.Reuses)
	L["server.index_fallbacks"] = float64(d.Index.Fallbacks)
	L["sched.wait_ms"] = median(st.schedWait)
	L["sched.shed"] = float64(d.Jobs.Shed)
	L["sched.degraded"] = float64(d.Jobs.Degraded)
	L["explore.store.snapshot_ms"] = median(durations(tr.snapshot(), "store.snapshot", "http.generate"))
	L["explore.store.errors"] = float64(d.Persistence.Errors + p.env.node.traced.errors.Load())
	L["trace.overhead_frac.explore"] = median(st.jobAll)/median(p.plain.jobAll) - 1

	tr.on.Store(true)
	defer tr.on.Store(false)
	var builds []float64
	for _, g := range st.graphs {
		builds = append(builds, replayBuild(tr, g, p.cfg.nproc))
	}
	L["graph.build_ms"] = median(builds)
	rep := replayCompute(tr, st.graphs[len(st.graphs)-1], p.cfg.nproc, budgetSweeps)
	for _, m := range computeLayers {
		L["explore."+m.name] = rep[m.name]
	}
	L["explore.localhi.budget_exact_frac"] = median(st.exactFrac)
	L["hierarchy.build_ms"] = rep["hierarchy.build_ms"]
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
