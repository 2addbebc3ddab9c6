// Package server implements nucleusd, the HTTP/JSON serving layer of the
// nucleus library. It turns the batch decomposition engines into an
// always-on service, mirroring the paper's split between full decomposition
// (Algorithms 1–3, expensive, run asynchronously) and query-driven local
// estimation (§1.2/§5, cheap, answered synchronously):
//
//   - a graph registry of named in-memory graphs, loaded from edge-list,
//     MatrixMarket or METIS uploads or from the built-in generators;
//   - incremental edge mutations: POST /graphs/{name}/edges applies an
//     add/remove batch to a mutable overlay, repairs core numbers locally
//     (subcore traversal, package dynamic), republishes a copy-on-write
//     snapshot under a bumped version, and warm-seeds the new version's
//     cache from the previous κ (Lemma 2) instead of recomputing cold;
//   - an asynchronous decomposition job queue backed by a bounded worker
//     pool over the localhi (AND/SND) and peel engines, with the job
//     lifecycle queued → running → done|failed|cancelled|shed. Dispatch
//     is workload-aware (internal/sched): an observed-cost model prices
//     each job, tenants (X-Nucleus-Tenant) share the pool by deficit
//     round-robin with per-tenant quotas, jobs within a tenant run
//     earliest-deadline-first, and ?deadlineMs submissions that cannot
//     meet their deadline are shed with 503 + Retry-After or degraded to
//     a computed anytime sweep budget;
//   - anytime serving of in-flight jobs: running snd/and decompositions
//     publish copy-on-write τ snapshots with convergence metrics after
//     every sweep (τ ≥ κ pointwise at all times — Theorem 1 makes partial
//     results safe upper bounds), readable by polling GET
//     /jobs/{id}/progress or streaming GET /jobs/{id}/stream (SSE), with
//     cooperative cancellation (DELETE /jobs/{id}) and deadline- or
//     sweep-budgeted synchronous queries (GET /graphs/{name}/decompose);
//   - an LRU result cache keyed by (graph, version, decomposition,
//     algorithm, sweep budget) so repeated decomposition requests are
//     served without recomputation;
//   - synchronous endpoints for query-driven core/truss estimation,
//     hierarchy and nuclei extraction, and densest-subgraph queries.
//
// Construct a Server with New and mount it on any http.Server (it
// implements http.Handler), or run the cmd/nucleusd binary. See
// docs/API.md for the endpoint reference.
package server

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nucleus/internal/nucleus"
	"nucleus/internal/replica"
	"nucleus/internal/store"
)

// Config configures a nucleusd Server.
type Config struct {
	// Workers is the size of the decomposition worker pool. Values <= 0
	// default to 2.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 429. Values <= 0 default
	// to 64.
	QueueDepth int
	// TenantQueueDepth bounds the queued jobs of a single tenant, so one
	// client cannot monopolize the shared queue; submissions beyond it are
	// rejected with 429 while other tenants still have room. Values <= 0
	// default to QueueDepth (no per-tenant subdivision).
	TenantQueueDepth int
	// TenantInFlight bounds how many of one tenant's jobs may run
	// concurrently. Values <= 0 default to Workers (no per-tenant bound).
	TenantInFlight int
	// MaxQueueWait, when positive, sheds deadline-less submissions whose
	// predicted queue wait exceeds it: they are answered 503 with a
	// Retry-After instead of joining a queue that is already beyond the
	// acceptable latency. 0 disables the guard (jobs queue until the
	// global/tenant depth bounds reject them). Deadline-tagged jobs are
	// governed by their own ?deadlineMs instead.
	MaxQueueWait time.Duration
	// CacheSize is the capacity (entry count) of the LRU decomposition
	// result cache. Values <= 0 default to 32; use 1 for an effectively
	// single-entry cache (the cache cannot be disabled entirely, which
	// keeps the /stats counters meaningful).
	CacheSize int
	// MaxUploadBytes caps the accepted size of a graph upload body.
	// Values <= 0 default to 256 MiB.
	MaxUploadBytes int64
	// JobThreads is the default worker-thread count passed to the local
	// decomposition algorithms when a job does not specify one. Values
	// <= 0 default to 1 (each pool worker runs its job sequentially).
	JobThreads int
	// JobHistory caps how many finished (done or failed) jobs are
	// retained for GET /jobs/{id}; the oldest are evicted beyond it,
	// bounding the memory pinned by per-job κ arrays. Values <= 0
	// default to 256.
	JobHistory int
	// IndexMemBudget caps the estimated size, in bytes, of one flat
	// s-clique incidence index (see nucleus.Build): instances whose index
	// would exceed it fall back to on-the-fly s-clique discovery. 0
	// defaults to nucleus.DefaultIndexBudget (1 GiB), the budget the
	// library's Decompose applies too; negative disables flat indexing
	// entirely. Note the sentinel difference from nucleus.Build (where 0
	// disables and negative means unlimited): a Config zero value must
	// select the default, so "effectively unlimited" is expressed here
	// with a huge positive value.
	IndexMemBudget int64
	// Store is the durable persistence backend: uploads become snapshots,
	// edit batches are write-ahead logged, and New replays both to recover
	// every graph at its exact pre-restart version. nil selects the
	// in-memory null store — the historical behavior where a restart loses
	// everything. The caller retains ownership: Close does not close it.
	Store store.Store
	// WALCompactBytes is the per-graph WAL size beyond which the
	// background compactor folds the log into a fresh snapshot, bounding
	// replay time after a crash. 0 defaults to 4 MiB; negative disables
	// compaction (the WAL then grows until the next upload or snapshot).
	WALCompactBytes int64
	// TenantWeights gives named tenants a deficit-round-robin weight
	// above the default 1: a weight-K tenant's queue earns K quanta per
	// scheduling round, so under contention it drains K× the work of an
	// unweighted one (see internal/sched). Weights below 2 are ignored.
	TenantWeights map[string]int
	// Replication configures the node's role in a replicated deployment
	// (primary / replica / standalone) and, for replicas, the pull
	// source. See docs/REPLICATION.md. The zero value is standalone.
	Replication ReplicationConfig
	// ProgressEvery samples the anytime progress publisher: running
	// snd/and decompositions publish a copy-on-write τ snapshot (plus
	// convergence metrics) every k-th sweep, feeding GET
	// /jobs/{id}/progress and the /jobs/{id}/stream SSE feed. 0 defaults
	// to 1 (every sweep); negative disables progress publishing entirely
	// (jobs then report only their terminal result). Each published
	// snapshot copies the τ array, so on huge graphs a larger k bounds the
	// publishing overhead.
	ProgressEvery int
}

// defaultWALCompactBytes is the compaction threshold applied when
// Config.WALCompactBytes is zero.
const defaultWALCompactBytes = 4 << 20 // 4 MiB

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TenantQueueDepth <= 0 {
		c.TenantQueueDepth = c.QueueDepth
	}
	if c.TenantInFlight <= 0 {
		c.TenantInFlight = c.Workers
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 32
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.JobThreads <= 0 {
		c.JobThreads = 1
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 256
	}
	if c.IndexMemBudget == 0 {
		c.IndexMemBudget = nucleus.DefaultIndexBudget
	}
	if c.Store == nil {
		c.Store = store.Null()
	}
	if c.WALCompactBytes == 0 {
		c.WALCompactBytes = defaultWALCompactBytes
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = 1
	}
	return c
}

// Server is the nucleusd HTTP serving layer. It is safe for concurrent
// use; create one with New and shut it down with Close.
type Server struct {
	cfg   Config
	reg   *registry
	cache *lruCache
	jobs  *jobManager
	mux   *http.ServeMux
	start time.Time

	// Single-flight table: in-progress decompositions by cache key.
	flightMu sync.Mutex
	inflight map[cacheKey]*flight

	// syncSem bounds graph-sized work running on request goroutines
	// (synchronous decompositions and estimations), which would otherwise
	// bypass the worker-pool bound that gates POST /jobs.
	syncSem chan struct{}

	// Request and cache counters, surfaced by /stats. Hits and misses
	// follow per-request accounting: every admitted decomposition request
	// (async job or synchronous κ consumer) increments exactly one of the
	// two — a hit when it was served from the cache or coalesced onto an
	// in-flight computation, a miss when it paid for the computation — so
	// hits + misses always equals the number of requests resolved.
	requests    atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// Mutation and warm-start counters, surfaced by /stats.
	mutBatches  atomic.Int64 // edit batches published
	mutApplied  atomic.Int64 // edits applied (adds + removes)
	mutIgnored  atomic.Int64 // no-op edits (dupes, absent, self-loops, out of range)
	warmRuns    atomic.Int64 // warm-started reconvergence runs after mutations
	coldRuns    atomic.Int64 // full cold decompositions actually executed
	warmSweeps  atomic.Int64 // sweeps spent by warm runs
	sweepsSaved atomic.Int64 // seed's cold sweeps minus warm sweeps, summed

	// Instance-cache counters, surfaced by /stats. Every request needing
	// an (r,s) instance either reuses the per-(graph version, family) memo
	// (idxReuses) or constructs one: with a flat s-clique incidence index
	// (idxBuilds) or on the fly when the budget declines it or the family
	// needs none (idxFallbacks).
	idxBuilds    atomic.Int64
	idxReuses    atomic.Int64
	idxFallbacks atomic.Int64
	idxBytes     atomic.Int64 // total bytes of flat indexes built since start

	// Anytime-serving counters, surfaced by /stats (see anytime.go and
	// docs/ANYTIME.md).
	progressSnaps   atomic.Int64 // τ snapshots published by completed runs
	sseStreams      atomic.Int64 // GET /jobs/{id}/stream connections served
	budgetedQueries atomic.Int64 // GET /graphs/{name}/decompose requests admitted
	deadlineStops   atomic.Int64 // budgeted runs ended by their wall-clock deadline

	// Persistence state and counters, surfaced by /stats (see persist.go).
	store           store.Store
	snapSaves       atomic.Int64 // snapshots written (uploads + compactions)
	walAppends      atomic.Int64 // WAL frames appended (batch + commit)
	walBytes        atomic.Int64 // WAL bytes appended since start
	replays         atomic.Int64 // graphs recovered at startup
	replayedBatches atomic.Int64 // committed WAL batches re-applied at startup
	compactions     atomic.Int64 // WALs folded into fresh snapshots
	persistErrors   atomic.Int64 // persistence failures (logged, non-fatal)

	// Compactor worker plumbing; compactMu also guards the closed flag so
	// a mutation racing Close cannot send on a closed channel.
	compactMu     sync.Mutex
	compactCh     chan string
	compactClosed bool
	compactWG     sync.WaitGroup

	// Replication state (see replication.go). replMu guards the role and
	// the puller handle — both change at promotion; generation is atomic
	// because the write-fencing check reads it on every mutating request.
	replMu        sync.Mutex
	replRole      string
	puller        *replica.Puller
	pullerRunning bool
	generation    atomic.Uint64
	fencedWrites  atomic.Int64 // writes rejected by the generation fence
	promotions    atomic.Int64 // replica→primary transitions on this node
}

// New constructs a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      newRegistry(),
		cache:    newLRUCache(cfg.CacheSize),
		inflight: make(map[cacheKey]*flight),
		syncSem:  make(chan struct{}, cfg.Workers),
		store:    cfg.Store,
		start:    time.Now(),
	}
	s.jobs = newJobManager(s)
	if s.store.Durable() {
		// Replay persisted snapshots + WALs before the first request can
		// arrive, then start folding long WALs in the background.
		s.recoverFromStore()
		s.startCompactor()
	}
	// Role, generation and (for replicas) the background puller — after
	// recovery so a restarted replica resumes from its local state.
	s.startReplication()
	s.mux = s.routes()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Close stops accepting jobs and blocks until in-flight jobs finish.
// Queued jobs that have not started are marked failed. The compactor is
// drained first so no snapshot write races process exit; the Store itself
// stays open (the caller owns it).
func (s *Server) Close() {
	s.stopReplication()
	s.stopCompactor()
	s.jobs.close()
}

// acquireSync/releaseSync bound the number of request goroutines running
// graph-sized computations concurrently.
func (s *Server) acquireSync() { s.syncSem <- struct{}{} }
func (s *Server) releaseSync() { <-s.syncSem }

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)

	// Replication (docs/REPLICATION.md). Always registered: a standalone
	// node answers /replication/status too, and the shipping endpoints
	// refuse cleanly (501) without a durable store.
	mux.HandleFunc("GET /replication/status", s.handleReplStatus)
	mux.HandleFunc("GET /replication/manifest", s.handleReplManifest)
	mux.HandleFunc("GET /replication/snapshot/{name}", s.handleReplSnapshot)
	mux.HandleFunc("GET /replication/wal/{name}", s.handleReplWAL)
	mux.HandleFunc("POST /replication/promote", s.handleReplPromote)
	mux.HandleFunc("POST /replication/repoint", s.handleReplRepoint)
	mux.HandleFunc("POST /replication/pull", s.handleReplPull)

	mux.HandleFunc("GET /graphs", s.handleListGraphs)
	mux.HandleFunc("POST /graphs/{name}", s.handleUploadGraph)
	mux.HandleFunc("POST /graphs/{name}/generate", s.handleGenerateGraph)
	mux.HandleFunc("GET /graphs/{name}", s.handleGetGraph)
	mux.HandleFunc("DELETE /graphs/{name}", s.handleDeleteGraph)
	mux.HandleFunc("POST /graphs/{name}/edges", s.handleMutateGraph)
	mux.HandleFunc("GET /graphs/{name}/core", s.handleCoreLookup)

	mux.HandleFunc("POST /jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /jobs", s.handleListJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleJobProgress)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancelJob)

	mux.HandleFunc("GET /graphs/{name}/decompose", s.handleDecompose)

	mux.HandleFunc("POST /estimate/core", s.handleEstimateCore)
	mux.HandleFunc("POST /estimate/truss", s.handleEstimateTruss)

	mux.HandleFunc("GET /graphs/{name}/hierarchy", s.handleHierarchy)
	mux.HandleFunc("GET /graphs/{name}/nuclei", s.handleNuclei)
	mux.HandleFunc("GET /graphs/{name}/densest", s.handleDensest)
	return mux
}
