// Package nucleus is a library for hierarchical dense subgraph discovery.
// It implements the local, parallel algorithms of Sarıyüce, Seshadhri and
// Pinar, "Local Algorithms for Hierarchical Dense Subgraph Discovery"
// (PVLDB 12(1), 2018): iterated h-index computation that converges to the
// exact k-core, k-truss and k-(r,s) nucleus decompositions, alongside the
// classic global peeling baseline.
//
// The entry point is Decompose:
//
//	g, _ := nucleus.LoadEdgeList("graph.txt")
//	res := nucleus.Decompose(g, nucleus.KTruss, nucleus.Options{Algorithm: nucleus.AND})
//	forest := nucleus.BuildHierarchy(g, nucleus.KTruss, res.Kappa)
//
// Decompositions are selected by (r,s): KCore is (1,2) over vertices and
// degrees, KTruss is (2,3) over edges and triangle counts, Nucleus34 is
// (3,4) over triangles and 4-clique counts — the paper's recommended sweet
// spot for dense subgraph quality. DecomposeRS supports any r < s via a
// flat clique-incidence index (practical for small graphs).
//
// Decompose builds the instance in parallel over Options.Threads and
// materializes the flat s-clique incidence index whenever it fits the
// shared 1 GiB budget (the one nucleusd applies), so the sweeps and the
// peel run as array scans. Past the budget the instance discovers
// s-cliques on the fly by adjacency intersection, with the same κ.
package nucleus

import (
	"fmt"

	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// Graph is the undirected simple graph type of the library.
type Graph = graph.Graph

// Decomposition selects which (r,s) nucleus decomposition to compute.
type Decomposition int

const (
	// KCore is the (1,2) decomposition: vertex core numbers.
	KCore Decomposition = iota
	// KTruss is the (2,3) decomposition: edge truss numbers (with triangle
	// connectivity, i.e. the (2,3) nucleus of the paper).
	KTruss
	// Nucleus34 is the (3,4) decomposition: triangle κ indices.
	Nucleus34
)

func (d Decomposition) String() string {
	switch d {
	case KCore:
		return "(1,2) k-core"
	case KTruss:
		return "(2,3) k-truss"
	case Nucleus34:
		return "(3,4) nucleus"
	}
	return fmt.Sprintf("Decomposition(%d)", int(d))
}

// Algorithm selects how the decomposition is computed.
type Algorithm int

const (
	// AND is the asynchronous local algorithm (Algorithm 3); the fastest,
	// and the default.
	AND Algorithm = iota
	// SND is the synchronous local algorithm (Algorithm 2).
	SND
	// Peel is the global bucket-peeling baseline (Algorithm 1).
	Peel
)

func (a Algorithm) String() string {
	switch a {
	case AND:
		return "AND"
	case SND:
		return "SND"
	case Peel:
		return "Peel"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Scheduling selects the parallel work distribution strategy.
type Scheduling = localhi.Scheduling

// Scheduling strategies for parallel sweeps.
const (
	Dynamic = localhi.Dynamic
	Static  = localhi.Static
)

// Options configures Decompose.
type Options struct {
	// Algorithm selects AND (default), SND or Peel.
	Algorithm Algorithm
	// Threads is the worker count; <=1 runs sequentially. Instance
	// construction (s-clique counting, triangle enumeration and the flat
	// incidence index) runs on these workers; the local algorithms split
	// sweeps across them; Peel runs the parallel bucket engine, peeling
	// each minimum-degree frontier across workers with a deterministic
	// barrier merge (results are bit-identical at every thread count).
	Threads int
	// MaxSweeps bounds local iterations; 0 runs to convergence. A bounded
	// run returns an approximation: τ ≥ κ pointwise.
	MaxSweeps int
	// Notification enables AND's plateau-skipping wakeup mechanism.
	// Defaults to on for AND; set DisableNotification to turn it off.
	DisableNotification bool
	// Scheduling selects Dynamic (default) or Static chunking.
	Scheduling Scheduling
	// Order overrides AND's processing order (cell ids).
	Order []int32
	// OnSweep is invoked after each local sweep with the current τ.
	OnSweep func(sweep int, tau []int32)
	// Progress, when non-nil, receives copy-on-write τ snapshots with
	// per-sweep convergence metrics while the run is in flight — the
	// anytime property made observable (see NewProgress and
	// docs/ANYTIME.md). Ignored by Peel, which has no intermediate state.
	Progress *Progress
	// Stop, when non-nil, is polled between sweeps; returning true ends
	// the run early with the intermediate τ (τ ≥ κ pointwise) and
	// Converged false. Use it for cancellation and wall-clock deadlines.
	// Ignored by Peel.
	Stop func() bool
}

// Result is the outcome of a decomposition.
type Result struct {
	// Decomposition echoes the requested instance.
	Decomposition Decomposition
	// Kappa[c] is the κ index of cell c (vertex id for KCore, edge id for
	// KTruss, triangle id for Nucleus34). For bounded local runs this is
	// the current τ, an upper bound on κ.
	Kappa []int32
	// MaxKappa is the largest value in Kappa.
	MaxKappa int32
	// Converged is true when Kappa is the exact decomposition.
	Converged bool
	// Stopped is true when Options.Stop ended the run early.
	Stopped bool
	// Iterations counts local sweeps that changed some τ (0 for peeling).
	Iterations int
	// Sweeps counts all local sweeps including the convergence check.
	Sweeps int
	// inst names the cells: the instance the run used, minus its flat
	// incidence index (inucleus.OnTheFly), so a Result of Decompose never
	// keeps an index alive.
	inst inucleus.Instance
}

// Decompose computes the selected decomposition of g. The instance is
// built over Options.Threads workers, with the flat incidence index when
// it fits the shared 1 GiB index budget.
func Decompose(g *Graph, dec Decomposition, opts Options) *Result {
	return decompose(g, dec, opts, inucleus.DefaultIndexBudget)
}

// decompose is Decompose under an explicit index budget (bytes; 0 never
// indexes, negative is unlimited).
func decompose(g *Graph, dec Decomposition, opts Options, budget int64) *Result {
	return decomposeInstance(instanceFor(g, dec, budget, opts.Threads), dec, opts)
}

// DecomposeRS computes the generic (r,s) decomposition (r < s). The
// first-class pairs (1,2), (2,3) and (3,4) run exactly as Decompose runs
// KCore, KTruss and Nucleus34 — cells are numbered by the family's
// canonical ids (vertices, edge ids, triangle ids) and the flat s-clique
// incidence index is built in parallel over Options.Threads within the
// same budget — except that Result.Decomposition is -1. Any other pair
// materializes a flat CSR incidence over the enumerated r-/s-cliques
// (nucleus.FlatRS), so generic (r,s) runs the exact same engines: the
// fused sweep kernels of the local algorithms and the parallel peeling
// frontier. Enumeration keeps the generic path practical for
// small-to-medium graphs only.
func DecomposeRS(g *Graph, r, s int, opts Options) *Result {
	var dec Decomposition
	switch {
	case r == 1 && s == 2:
		dec = KCore
	case r == 2 && s == 3:
		dec = KTruss
	case r == 3 && s == 4:
		dec = Nucleus34
	default:
		return decomposeInstance(inucleus.NewFlatRS(g, r, s, max(opts.Threads, 1)), Decomposition(-1), opts)
	}
	return decomposeInstance(instanceFor(g, dec, inucleus.DefaultIndexBudget, opts.Threads), Decomposition(-1), opts)
}

func decomposeInstance(inst inucleus.Instance, dec Decomposition, opts Options) *Result {
	res := &Result{Decomposition: dec, inst: inucleus.OnTheFly(inst)}
	switch opts.Algorithm {
	case Peel:
		pr := peel.RunThreads(inst, opts.Threads)
		res.Kappa = pr.Kappa
		res.MaxKappa = pr.MaxKappa
		res.Converged = true
	case SND:
		lr := localhi.Snd(inst, localhi.Options{
			Threads:    opts.Threads,
			MaxSweeps:  opts.MaxSweeps,
			Scheduling: opts.Scheduling,
			OnSweep:    opts.OnSweep,
			Progress:   opts.Progress,
			Stop:       opts.Stop,
		})
		fillLocal(res, lr)
	default: // AND
		lr := localhi.And(inst, localhi.Options{
			Threads:      opts.Threads,
			MaxSweeps:    opts.MaxSweeps,
			Scheduling:   opts.Scheduling,
			Order:        opts.Order,
			Notification: !opts.DisableNotification,
			OnSweep:      opts.OnSweep,
			Progress:     opts.Progress,
			Stop:         opts.Stop,
		})
		fillLocal(res, lr)
	}
	return res
}

func fillLocal(res *Result, lr *localhi.Result) {
	res.Kappa = lr.Tau
	res.Converged = lr.Converged
	res.Stopped = lr.Stopped
	res.Iterations = lr.Iterations
	res.Sweeps = lr.Sweeps
	for _, k := range lr.Tau {
		if k > res.MaxKappa {
			res.MaxKappa = k
		}
	}
}

// instanceFor builds the instance of a first-class decomposition through
// inucleus.Build on the given thread count: the flat indexed instance when
// its index fits budget (bytes; 0 never indexes, negative is unlimited),
// the on-the-fly instance otherwise. Every library path chooses its
// instance here.
func instanceFor(g *Graph, dec Decomposition, budget int64, threads int) inucleus.Instance {
	var fam inucleus.Family
	switch dec {
	case KCore:
		fam = inucleus.FamilyCore
	case KTruss:
		fam = inucleus.FamilyTruss
	case Nucleus34:
		fam = inucleus.FamilyN34
	default:
		panic(fmt.Sprintf("nucleus: unknown decomposition %d", dec))
	}
	inst, _ := inucleus.Build(g, fam, budget, max(threads, 1))
	return inst
}

// CellLabel formats cell c of the result's decomposition for display
// (vertex, edge endpoints, or triangle vertices).
func (r *Result) CellLabel(c int32) string { return r.inst.CellLabel(c) }

// CellVertices returns the vertices of cell c.
func (r *Result) CellVertices(c int32) []uint32 {
	return r.inst.CellVertices(c, nil)
}

// Histogram returns the count of cells per κ value, indexed by κ.
func (r *Result) Histogram() []int64 {
	h := make([]int64, r.MaxKappa+1)
	for _, k := range r.Kappa {
		h[k]++
	}
	return h
}
