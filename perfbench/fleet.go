package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"nucleus/internal/graph"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/replica"
	"nucleus/internal/router"
	"nucleus/internal/server"
)

// The fleet phase is the write path behind the router: a durable primary,
// a durable replica whose pulls the writer drives (background pulls are
// off, so visibility measures the pipeline, not a pull cadence), and a
// router. store, dynamic, replica and router do the work; reads mostly
// hit the warm-seeded cache.

const (
	// fleetGraphs is how many graphs the fleet phase loads.
	fleetGraphs = 3
	// fleetCompactBytes is the primary's WAL compaction threshold: low, so
	// compaction completes several cycles in every run.
	fleetCompactBytes = 4 << 10
	// fleetJobThreads is each fleet node's intra-job thread count, which
	// its warm re-seeds and cold reads run with.
	fleetJobThreads = 1
	// batchAdds and batchRemoves make up one writer batch.
	batchAdds    = 8
	batchRemoves = 8
	// lookupVertices is the vertex count of one point lookup.
	lookupVertices = 4
	// readCycle is the reader's request mix: one truss estimate, one warm
	// truss read and readCycle-2 point lookups.
	readCycle = 200
	// overheadPairs is how many routed and direct lookups, alternating,
	// the traced run times to measure the router's overhead.
	overheadPairs = 2000
)

type edit struct {
	add  bool
	u, v uint32
}

// ledgerBatch is one acknowledged batch and the version it was
// published at.
type ledgerBatch struct {
	version uint64
	edits   []edit
}

// graphLedger is the writer's record of what the fleet acknowledged for
// one graph: the generated graph, the current edge set and every batch.
// The κ oracle is derived from it, independently of the fleet.
type graphLedger struct {
	name    string
	n       int
	g0      *graph.Graph
	v0      uint64
	list    [][2]uint32
	pos     map[[2]uint32]int
	batches []ledgerBatch
	// queries are the estimate requests issued for this graph.
	queries [][][2]uint32
}

func newLedger(name string, g *graph.Graph, v0 uint64) *graphLedger {
	l := &graphLedger{name: name, n: g.N(), g0: g, v0: v0, pos: map[[2]uint32]int{}}
	for _, e := range edgeList(g) {
		l.pos[e] = len(l.list)
		l.list = append(l.list, e)
	}
	return l
}

func (l *graphLedger) has(e [2]uint32) bool {
	_, ok := l.pos[e]
	return ok
}

func (l *graphLedger) apply(b ledgerBatch) {
	for _, ed := range b.edits {
		e := [2]uint32{ed.u, ed.v}
		if ed.add {
			l.pos[e] = len(l.list)
			l.list = append(l.list, e)
			continue
		}
		i := l.pos[e]
		last := l.list[len(l.list)-1]
		l.list[i] = last
		l.pos[last] = i
		l.list = l.list[:len(l.list)-1]
		delete(l.pos, e)
	}
	l.batches = append(l.batches, b)
}

// nextBatch draws batchRemoves existing edges and batchAdds absent ones.
func (l *graphLedger) nextBatch(rng *rand.Rand) []edit {
	var out []edit
	taken := map[[2]uint32]bool{}
	for len(out) < batchRemoves && len(taken) < len(l.list) {
		e := l.list[rng.Intn(len(l.list))]
		if taken[e] {
			continue
		}
		taken[e] = true
		out = append(out, edit{add: false, u: e[0], v: e[1]})
	}
	for adds := 0; adds < batchAdds; {
		u, v := uint32(rng.Intn(l.n)), uint32(rng.Intn(l.n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := [2]uint32{u, v}
		if taken[e] || l.has(e) {
			continue
		}
		taken[e] = true
		out = append(out, edit{add: true, u: u, v: v})
		adds++
	}
	return out
}

// edgesAt returns the edge list at each of the requested versions,
// replaying the ledger from the generated graph.
func (l *graphLedger) graphsAt(versions map[uint64]bool) map[uint64]*graph.Graph {
	out := map[uint64]*graph.Graph{}
	cur := map[[2]uint32]bool{}
	for _, e := range edgeList(l.g0) {
		cur[e] = true
	}
	snap := func(v uint64) {
		if !versions[v] {
			return
		}
		edges := make([][2]uint32, 0, len(cur))
		for e := range cur {
			edges = append(edges, e)
		}
		out[v] = graph.Build(l.n, edges)
	}
	snap(l.v0)
	for _, b := range l.batches {
		for _, ed := range b.edits {
			if ed.add {
				cur[[2]uint32{ed.u, ed.v}] = true
			} else {
				delete(cur, [2]uint32{ed.u, ed.v})
			}
		}
		snap(b.version)
	}
	return out
}

type fleetEnv struct {
	tr       *tracer
	primary  *node
	replica  *node
	rt       *router.Router
	rts      *httptest.Server
	w, r     *client // writer and reader
	ledgers  []*graphLedger
	wrng     *rand.Rand
	rrng     *rand.Rand
	batchSeq int

	// Reader answers awaiting their check, and the sample sets they
	// belong to.
	mu      sync.Mutex
	lookups []lookupAnswer
	decs    []decomposeAnswer
}

type lookupAnswer struct {
	graph   int
	version uint64
	verts   []uint32
	cores   []int32
	smp     *samples
	idx     int
}

type decomposeAnswer struct {
	graph     int
	version   uint64
	tau       []int32
	converged bool
}

func setupFleet(cfg runConfig, tr *tracer) (*fleetEnv, error) {
	dir, err := freshDir(cfg.dataDir, "fleet")
	if err != nil {
		return nil, err
	}
	fe := &fleetEnv{tr: tr, w: newClient(), r: newClient(),
		wrng: rand.New(rand.NewSource(subSeed(cfg.seed, "fleet-writer", 0))),
		rrng: rand.New(rand.NewSource(subSeed(cfg.seed, "fleet-reader", 0)))}
	base := server.Config{Workers: cfg.nproc, JobThreads: fleetJobThreads, WALCompactBytes: fleetCompactBytes}
	pc := base
	pc.Replication = server.ReplicationConfig{Role: replica.RolePrimary, Generation: 1}
	if fe.primary, err = startNode(filepath.Join(dir, "primary"), tr, pc); err != nil {
		return nil, err
	}
	rc := base
	rc.Replication = server.ReplicationConfig{Role: replica.RoleReplica, Primary: fe.primary.url(),
		Generation: 1, PullInterval: -1}
	if fe.replica, err = startNode(filepath.Join(dir, "replica"), tr, rc); err != nil {
		fe.primary.close()
		return nil, err
	}
	fe.rt, err = router.New(router.Config{Groups: []router.GroupConfig{
		{Name: "shard0", Primary: fe.primary.url(), Replicas: []string{fe.replica.url()}},
	}})
	if err != nil {
		fe.close()
		return nil, err
	}
	fe.rts = httptest.NewServer(fe.rt)

	fam := cfg.family
	for i := 0; i < fleetGraphs; i++ {
		name := fmt.Sprintf("g%d", i)
		seed := subSeed(structureSeed, "fleet-graph", i)
		var gv struct {
			N       int    `json:"n"`
			M       int64  `json:"m"`
			Version uint64 `json:"version"`
		}
		status, err := fe.w.do("POST", fe.rts.URL+"/graphs/"+name+"/generate", jsonBody(fam.fleet.request(seed)), &gv)
		if err != nil || status != http.StatusCreated {
			fe.close()
			return nil, fmt.Errorf("generate %s through the router: status %d, %v", name, status, err)
		}
		g := fam.fleet.build(seed)
		if g.N() != gv.N || g.M() != gv.M {
			fe.close()
			return nil, fmt.Errorf("generated %s differs from the local generator", name)
		}
		fe.ledgers = append(fe.ledgers, newLedger(name, g, gv.Version))
	}
	// Warm-up: ship the graphs, apply one batch to each (so κ is
	// maintained), and cache each graph's truss decomposition on the
	// replica, which later batches then warm re-seed.
	warm := newTally()
	for i := range fe.ledgers {
		var s fleetStats
		fe.writeOnce(i, &s, warm)
		fe.decompose(i, warm)
	}
	if _, failed := warm.counts(); failed > 0 {
		fe.close()
		return nil, fmt.Errorf("fleet warm-up failed: %s", strings.Join(warm.reasonList(), "; "))
	}
	return fe, nil
}

func (fe *fleetEnv) close() {
	if fe.rts != nil {
		fe.rts.Close()
	}
	if fe.rt != nil {
		fe.rt.Stop()
	}
	if fe.replica != nil {
		fe.replica.close()
	}
	if fe.primary != nil {
		fe.primary.close()
	}
	fe.w.close()
	fe.r.close()
}

// fleetStats accumulates one measured window.
type fleetStats struct {
	ops     int
	mutate  samples
	visible samples
	lookup  samples
	pull    []float64
	lag     []float64
}

// writeOnce posts one batch through the router, pulls it to the replica
// and reads through the router until that version is served.
func (fe *fleetEnv) writeOnce(gi int, st *fleetStats, tl *tally) {
	l := fe.ledgers[gi]
	edits := l.nextBatch(fe.wrng)
	var sb strings.Builder
	sb.WriteString(`{"edits":[`)
	for i, e := range edits {
		if i > 0 {
			sb.WriteByte(',')
		}
		op := "remove"
		if e.add {
			op = "add"
		}
		fmt.Fprintf(&sb, `{"op":%q,"u":%d,"v":%d}`, op, e.u, e.v)
	}
	sb.WriteString(`]}`)

	tl.attempt()
	var ack struct {
		Version uint64 `json:"version"`
		Added   int    `json:"added"`
		Removed int    `json:"removed"`
	}
	sp := fe.tr.beginOp("http.mutate")
	fe.tr.setCurrent(sp)
	t0 := time.Now()
	status, err := fe.w.do("POST", fe.rts.URL+"/graphs/"+l.name+"/edges", []byte(sb.String()), &ack)
	lat := msSince(t0)
	acked := time.Now()
	sp.end()
	fe.tr.setCurrent(nil)
	if reason := opFailure("fleet mutate", status, err); reason != "" {
		tl.fail(reason)
		st.mutate.addFailed()
		return
	}
	st.mutate.add(lat)
	st.ops++
	l.apply(ledgerBatch{version: ack.Version, edits: edits})
	if ack.Added != batchAdds || ack.Removed != batchRemoves {
		tl.fail(fmt.Sprintf("fleet mutate: applied %d adds and %d removes, ledger expects %d and %d",
			ack.Added, ack.Removed, batchAdds, batchRemoves))
	}

	// Ship it: trigger one pull on the replica, standing in for its
	// background puller, and meanwhile read through the router until the
	// acknowledged version is served. The replica publishes a batch before
	// it warm re-seeds the new version's cache, so a reader can see the
	// write before the pull returns; visibility is measured to that first
	// read, the pull to its own return.
	tl.attempt()
	var (
		ns         replica.NodeStatus
		pullStatus int
		pullErr    error
		pullMs     float64
	)
	done := make(chan struct{})
	sp = fe.tr.beginOp("http.pull")
	fe.tr.setCurrent(sp)
	go func() {
		defer close(done)
		t0 := time.Now()
		pullStatus, pullErr = fe.w.do("POST", fe.replica.url()+"/replication/pull", nil, &ns)
		pullMs = msSince(t0)
	}()
	visible := fe.awaitVersion(l.name, ack.Version, acked, done, tl)
	<-done
	sp.end()
	fe.tr.setCurrent(nil)
	if reason := opFailure("fleet replica pull", pullStatus, pullErr); reason != "" {
		tl.fail(reason)
		st.visible.addFailed()
		return
	}
	if visible < 0 {
		st.visible.addFailed()
		return
	}
	st.visible.add(visible)
	st.pull = append(st.pull, pullMs)
	st.lag = append(st.lag, float64(ns.LagVersions))
}

// awaitVersion reads graph name through the router until it serves
// version and returns the milliseconds since acked. It gives up, counting
// a failure and returning -1, when a read issued after the pull finished
// still does not see the version.
func (fe *fleetEnv) awaitVersion(name string, version uint64, acked time.Time, pullDone <-chan struct{}, tl *tally) float64 {
	sp := fe.tr.beginOp("http.visible")
	defer sp.end()
	for {
		finished := false
		select {
		case <-pullDone:
			finished = true
		default:
		}
		var gv struct {
			Version uint64 `json:"version"`
		}
		status, err := fe.w.do("GET", fe.rts.URL+"/graphs/"+name, nil, &gv)
		if status == http.StatusNotFound && !finished {
			runtime.Gosched() // a new graph is not on the replica until its first pull
			continue
		}
		if reason := opFailure("fleet visibility read", status, err); reason != "" {
			tl.fail(reason)
			return -1
		}
		if gv.Version >= version {
			return msSince(acked)
		}
		if finished {
			tl.fail("fleet visibility: the router does not serve the acknowledged version after the pull")
			return -1
		}
		// Yield between probes so they do not crowd out the pull, which
		// runs in this process. (Sleeping instead lets the host idle the
		// CPUs, and waking them costs more than the probes.)
		runtime.Gosched()
	}
}

// decompose reads the (warm) truss decomposition of graph gi, with its
// κ, through the router and records the answer for checking.
func (fe *fleetEnv) decompose(gi int, tl *tally) bool {
	l := fe.ledgers[gi]
	tl.attempt()
	var d struct {
		Version   uint64  `json:"version"`
		Tau       []int32 `json:"tau"`
		Converged bool    `json:"converged"`
	}
	sp := fe.tr.beginOp("http.decompose")
	status, err := fe.r.do("GET", fe.rts.URL+"/graphs/"+l.name+"/decompose?dec=truss&tau=true", nil, &d)
	sp.end()
	if reason := opFailure("fleet decompose", status, err); reason != "" {
		tl.fail(reason)
		return false
	}
	fe.mu.Lock()
	fe.decs = append(fe.decs, decomposeAnswer{graph: gi, version: d.Version, tau: d.Tau, converged: d.Converged})
	fe.mu.Unlock()
	return true
}

// readOnce issues the reader's next request: mostly routed point lookups,
// with one truss estimate and one warm truss read in every readCycle
// requests.
func (fe *fleetEnv) readOnce(i int, st *fleetStats, tl *tally) {
	gi := fe.rrng.Intn(len(fe.ledgers))
	l := fe.ledgers[gi]
	switch i % readCycle {
	case readCycle / 4:
		q := [][2]uint32{l.g0Edge(fe.rrng), l.g0Edge(fe.rrng)}
		l.queries = append(l.queries, q)
		tl.attempt()
		var est struct {
			Estimates []int32 `json:"estimates"`
		}
		sp := fe.tr.beginOp("http.estimate")
		status, err := fe.r.do("POST", fe.rts.URL+"/estimate/truss",
			jsonBody(map[string]any{"graph": l.name, "edges": q, "hops": 1}), &est)
		sp.end()
		if reason := opFailure("fleet estimate", status, err); reason != "" {
			tl.fail(reason)
			return
		}
		if len(est.Estimates) != len(q) {
			tl.fail("fleet estimate: wrong answer count")
			return
		}
		st.ops++
		return
	case readCycle * 3 / 4:
		if fe.decompose(gi, tl) {
			st.ops++
		}
		return
	}
	if fe.lookup(gi, fe.rts.URL, &st.lookup, "http.lookup", tl) {
		st.ops++
	}
}

// lookup reads the core numbers of a few random vertices of graph gi from
// base (the router or a node), adds the latency to smp and records the
// answer for checking.
func (fe *fleetEnv) lookup(gi int, base string, smp *samples, name string, tl *tally) bool {
	l := fe.ledgers[gi]
	verts := make([]uint32, lookupVertices)
	var q strings.Builder
	for k := range verts {
		verts[k] = uint32(fe.rrng.Intn(l.n))
		if k > 0 {
			q.WriteByte('&')
		}
		fmt.Fprintf(&q, "v=%d", verts[k])
	}
	tl.attempt()
	var cl struct {
		Version     uint64  `json:"version"`
		CoreNumbers []int32 `json:"coreNumbers"`
	}
	sp := fe.tr.beginOp(name)
	t0 := time.Now()
	status, err := fe.r.do("GET", base+"/graphs/"+l.name+"/core?"+q.String(), nil, &cl)
	lat := msSince(t0)
	sp.end()
	if reason := opFailure("fleet lookup", status, err); reason != "" {
		tl.fail(reason)
		smp.addFailed()
		return false
	}
	idx := smp.add(lat)
	fe.mu.Lock()
	fe.lookups = append(fe.lookups, lookupAnswer{graph: gi, version: cl.Version, verts: verts, cores: cl.CoreNumbers, smp: smp, idx: idx})
	fe.mu.Unlock()
	return true
}

// routerOverhead times overheadPairs routed and direct lookups of the
// replica, alternating, with the writer idle, and returns their p50
// difference. It runs apart from the measured windows, so the traced and
// untraced halves of a traced run keep the same request mix.
func (fe *fleetEnv) routerOverhead(tl *tally) float64 {
	var routed, direct samples
	for i := 0; i < overheadPairs; i++ {
		gi := fe.rrng.Intn(len(fe.ledgers))
		fe.lookup(gi, fe.rts.URL, &routed, "http.lookup", tl)
		fe.lookup(gi, fe.replica.url(), &direct, "http.lookup_direct", tl)
	}
	return routed.median() - direct.median()
}

// g0Edge picks a random edge of the generated graph (it may have been
// removed since; the estimate then reports -1 for it).
func (l *graphLedger) g0Edge(rng *rand.Rand) [2]uint32 {
	u := uint32(rng.Intn(l.n))
	for l.g0.Degree(u) == 0 {
		u = uint32(rng.Intn(l.n))
	}
	nb := l.g0.Neighbors(u)
	return [2]uint32{u, nb[rng.Intn(len(nb))]}
}

// window runs the writer and the reader closed loop for seconds,
// accumulating into ws and rs.
func (fe *fleetEnv) window(ws, rs *fleetStats, seconds float64, tl *tally) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			fe.writeOnce(fe.batchSeq%len(fe.ledgers), ws, tl)
			fe.batchSeq++
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			fe.readOnce(i, rs, tl)
		}
	}()
	wg.Wait()
}

// verify checks, untimed, every recorded answer: each lookup against the
// peel oracle at the version it was served at, each truss read's κ
// against peel.Run on the ledger's graph at its version, and — after a
// final pull — the replica's κ bit-identical to the primary's and to the
// oracle at the final version.
func (fe *fleetEnv) verify(tl *tally) {
	need := make([]map[uint64]bool, len(fe.ledgers))
	for i := range need {
		need[i] = map[uint64]bool{}
	}
	for _, a := range fe.lookups {
		need[a.graph][a.version] = true
	}
	for _, d := range fe.decs {
		need[d.graph][d.version] = true
	}
	for i, l := range fe.ledgers {
		if n := len(l.batches); n > 0 {
			need[i][l.batches[n-1].version] = true
		}
	}
	oracle := make([]map[uint64][]int32, len(fe.ledgers))
	graphs := make([]map[uint64]*graph.Graph, len(fe.ledgers))
	for i, l := range fe.ledgers {
		graphs[i] = l.graphsAt(need[i])
		oracle[i] = map[uint64][]int32{}
		for v, g := range graphs[i] {
			oracle[i][v] = peel.Run(inucleus.NewCore(g)).Kappa
		}
	}
	for _, a := range fe.lookups {
		k, ok := oracle[a.graph][a.version]
		if !ok || len(a.cores) != len(a.verts) {
			tl.fail("fleet lookup: served a version the ledger never acknowledged")
			a.smp.markBad(a.idx)
			continue
		}
		for j, v := range a.verts {
			if a.cores[j] != k[v] {
				tl.fail("fleet lookup: κ differs from the ledger oracle at the served version")
				a.smp.markBad(a.idx)
				break
			}
		}
	}
	truss := make([]map[uint64][]int32, len(fe.ledgers))
	for i := range truss {
		truss[i] = map[uint64][]int32{}
	}
	trussAt := func(gi int, v uint64) ([]int32, bool) {
		if k, ok := truss[gi][v]; ok {
			return k, true
		}
		g, ok := graphs[gi][v]
		if !ok {
			return nil, false
		}
		truss[gi][v] = peel.Run(inucleus.NewTruss(g)).Kappa
		return truss[gi][v], true
	}
	for _, d := range fe.decs {
		k, ok := trussAt(d.graph, d.version)
		switch {
		case !ok:
			tl.fail("fleet decompose: served a version the ledger never acknowledged")
		case !d.converged || !equalKappa(d.tau, k):
			tl.fail("fleet decompose: truss κ differs from peel.Run on the ledger's graph at its version")
		}
	}

	// Final pull, then primary and replica must agree bit for bit.
	tl.attempt()
	status, err := fe.w.do("POST", fe.replica.url()+"/replication/pull", nil, nil)
	if reason := opFailure("fleet final pull", status, err); reason != "" {
		tl.fail(reason)
		return
	}
	for i, l := range fe.ledgers {
		final := l.batches[len(l.batches)-1].version
		var q strings.Builder
		for v := 0; v < l.n; v++ {
			if v > 0 {
				q.WriteByte('&')
			}
			fmt.Fprintf(&q, "v=%d", v)
		}
		var got [2]struct {
			Version     uint64  `json:"version"`
			CoreNumbers []int32 `json:"coreNumbers"`
		}
		var tau [2]struct {
			Version uint64  `json:"version"`
			Tau     []int32 `json:"tau"`
		}
		for j, base := range []string{fe.primary.url(), fe.replica.url()} {
			tl.attempt()
			status, err := fe.w.do("GET", base+"/graphs/"+l.name+"/core?"+q.String(), nil, &got[j])
			if reason := opFailure("fleet final core read", status, err); reason != "" {
				tl.fail(reason)
				return
			}
			tl.attempt()
			status, err = fe.w.do("GET", base+"/graphs/"+l.name+"/decompose?dec=truss&tau=true", nil, &tau[j])
			if reason := opFailure("fleet final truss read", status, err); reason != "" {
				tl.fail(reason)
				return
			}
		}
		finalTruss, _ := trussAt(i, final)
		switch {
		case got[0].Version != final || got[1].Version != final || tau[0].Version != final || tau[1].Version != final:
			tl.fail("fleet final state: primary or replica is not at the last acknowledged version")
		case !equalKappa(got[0].CoreNumbers, got[1].CoreNumbers) || !equalKappa(tau[0].Tau, tau[1].Tau):
			tl.fail("fleet final state: replica κ is not bit-identical to the primary's")
		case !equalKappa(got[0].CoreNumbers, oracle[i][final]):
			tl.fail("fleet final state: κ differs from the ledger oracle")
		case !equalKappa(tau[0].Tau, finalTruss):
			tl.fail("fleet final state: truss κ differs from peel.Run")
		}
	}
}

// fleetPhase accumulates the fleet phase's slices. Untraced slices feed
// the end-to-end metrics; traced ones feed the per-layer metrics, with
// /stats deltas of both nodes.
type fleetPhase struct {
	cfg                     runConfig
	tr                      *tracer
	tl                      *tally
	env                     *fleetEnv
	plainSec                float64
	plainW, plainR          fleetStats
	tracedW, tracedR        fleetStats
	plainDelta, tracedDelta nodeStats // primary + replica
	replicaDelta            nodeStats // replica, traced slices
	walBytes, walEdits      int64     // primary, traced slices
	firstTraced             int       // graph 0's first batch of a traced slice
}

func setupFleetPhase(cfg runConfig, tr *tracer, tl *tally) (phase, error) {
	env, err := setupFleet(cfg, tr)
	if err != nil {
		return nil, err
	}
	return &fleetPhase{cfg: cfg, tr: tr, tl: tl, env: env, firstTraced: -1}, nil
}

func (p *fleetPhase) close() { p.env.close() }

func (p *fleetPhase) measure(seconds float64, traced bool) error {
	fe := p.env
	both := func() (nodeStats, nodeStats, error) {
		pst, err := fe.w.stats(fe.primary.url())
		if err != nil {
			return pst, pst, err
		}
		rst, err := fe.w.stats(fe.replica.url())
		return pst.add(rst), rst, err
	}
	before, repBefore, err := both()
	if err != nil {
		return err
	}
	if !traced {
		fe.window(&p.plainW, &p.plainR, seconds, p.tl)
		p.plainSec += seconds
	} else {
		if p.firstTraced < 0 {
			p.firstTraced = len(fe.ledgers[0].batches)
		}
		bytes0, edits0 := fe.primary.traced.walBytes.Load(), fe.primary.traced.edits.Load()
		fe.window(&p.tracedW, &p.tracedR, seconds, p.tl)
		p.walBytes += fe.primary.traced.walBytes.Load() - bytes0
		p.walEdits += fe.primary.traced.edits.Load() - edits0
	}
	after, repAfter, err := both()
	if err != nil {
		return err
	}
	if traced {
		p.tracedDelta = p.tracedDelta.add(after.sub(before))
		p.replicaDelta = p.replicaDelta.add(repAfter.sub(repBefore))
	} else {
		p.plainDelta = p.plainDelta.add(after.sub(before))
	}
	return nil
}

func (p *fleetPhase) finish(pr *phaseResult) error {
	fe, fam := p.env, p.cfg.family
	pr.facts["clients"] = "2 (one writer, one reader)"
	pr.facts["graphs"] = fmt.Sprintf("%d x %s", fleetGraphs, fam.fleet.label)
	pr.facts["batch"] = fmt.Sprintf("%d adds + %d removes", batchAdds, batchRemoves)
	pr.facts["jobThreads"] = fleetJobThreads
	pr.facts["flush"] = fmt.Sprintf("every batch: WAL batch and commit frames fsynced on primary and replica; compaction above %d bytes", fleetCompactBytes)
	spans := p.tr.snapshot()
	overhead := 0.0
	if p.cfg.trace {
		p.tr.on.Store(true)
		overhead = fe.routerOverhead(p.tl)
		p.tr.on.Store(false)
	}
	fe.verify(p.tl)

	if !p.cfg.trace {
		ws, rs, d := &p.plainW, &p.plainR, p.plainDelta
		pr.facts["cacheHitShare"] = ratio(d.Cache.Hits, d.Cache.Lookups)
		pr.facts["batches"] = ws.mutate.len()
		pr.facts["lookups"] = rs.lookup.len()
		pr.facts["compactions"] = d.Persistence.Compactions
		pr.e2e["fleet_ops_per_s"] = float64(ws.ops+rs.ops) / p.plainSec
		pr.e2e["mutate_p50_ms"] = ws.mutate.median()
		pr.e2e["lookup_p50_ms"] = rs.lookup.median()
		pr.e2e["replica_visible_p50_ms"] = ws.visible.median()
		// Both capped at p90: 350 to 900 batches a run give 3 to 9
		// blocks; the lookups' p99 moved with the host more than
		// their p90 did.
		for name, s := range map[string]struct {
			smp  *samples
			maxP float64
		}{"mutate_tail_ms": {&ws.mutate, 90}, "lookup_tail_ms": {&rs.lookup, 90}} {
			t, ok := s.smp.tail(s.maxP)
			if !ok {
				return fmt.Errorf("%s: only %d samples, too few for a tail", name, s.smp.len())
			}
			pr.tails[name] = t
			pr.e2e[name] = t.Value
		}
		return nil
	}

	ws, d, rd := &p.tracedW, p.tracedDelta, p.replicaDelta
	L := pr.layers
	L["fleet.server.cache_hit_ratio"] = ratio(d.Cache.Hits, d.Cache.Lookups)
	L["server.warm_runs"] = float64(d.Mutations.WarmRuns)
	L["server.cold_runs"] = float64(d.Mutations.ColdRuns)
	L["server.sweeps_saved"] = float64(d.Mutations.SweepsSaved)
	L["fleet.store.snapshot_ms"] = median(durations(spans, "store.snapshot", "")) // compactions
	L["store.begin_ms"] = median(durations(spans, "store.begin", "http.mutate"))
	L["store.commit_ms"] = median(durations(spans, "store.commit", "http.mutate"))
	L["store.wal_bytes_per_edit"] = ratio(p.walBytes, p.walEdits)
	L["store.compactions"] = float64(d.Persistence.Compactions)
	L["fleet.store.errors"] = float64(d.Persistence.Errors + fe.primary.traced.errors.Load() + fe.replica.traced.errors.Load())
	L["replica.pull_ms"] = median(ws.pull)
	L["replica.bytes_pulled"] = float64(rd.Replication.BytesPulled)
	L["replica.batches_applied"] = float64(rd.Replication.BatchesApplied)
	L["replica.snapshot_installs"] = float64(rd.Replication.SnapshotsInstalled)
	L["replica.lag_versions"] = mean(ws.lag)
	L["router.overhead_ms"] = overhead
	L["trace.overhead_frac.fleet"] = ws.mutate.median()/p.plainW.mutate.median() - 1

	// Replay graph 0's traced batches from the state they applied to.
	p.tr.on.Store(true)
	defer p.tr.on.Store(false)
	l := fe.ledgers[0]
	start := l.batches[p.firstTraced-1].version
	last := l.batches[len(l.batches)-1].version
	at := l.graphsAt(map[uint64]bool{start: true, last: true})
	for k, v := range replayDynamic(p.tr, at[start], l.batches[p.firstTraced:], p.cfg.nproc) {
		L[k] = v
	}
	queries := l.queries
	if len(queries) == 0 {
		queries = [][][2]uint32{{l.g0Edge(fe.rrng)}}
	}
	L["query.estimate_ms"] = replayEstimates(p.tr, at[last], queries, p.cfg.nproc)
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
