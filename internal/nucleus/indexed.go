package nucleus

import (
	"fmt"
	"math"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
)

// FlatIncidence is implemented by instances whose s-clique incidence is
// materialized as flat CSR arrays. Algorithms that iterate VisitSCliques
// many times (the localhi sweep kernels) detect this interface and run a
// fused array-scan fast path instead of the closure-per-s-clique generic
// path.
type FlatIncidence interface {
	Instance
	// FlatIncidenceArrays exposes the index: for cell c,
	// members[offs[c]:offs[c+1]] holds the co-member cell ids of its
	// s-cliques, coArity (= the co-member count of one s-clique, e.g. 2
	// for (2,3), 3 for (3,4)) consecutive ids per s-clique. The arrays are
	// immutable and shared; callers must not modify them.
	FlatIncidenceArrays() (offs []int64, members []int32, coArity int)
}

// IndexedTruss is the (2,3) instance over a flat triangle incidence index:
// identical semantics to Truss, but every VisitSCliques is a contiguous
// array scan instead of a sorted-merge adjacency intersection. Build one
// with NewIndexedTruss or adaptively via Build.
type IndexedTruss struct {
	G   *graph.Graph
	Inc *cliques.EdgeIncidence
	deg []int32
}

// NewIndexedTruss counts triangles per edge and materializes the flat
// incidence index, both in parallel over the given thread count.
func NewIndexedTruss(g *graph.Graph, threads int) *IndexedTruss {
	deg := cliques.CountPerEdgeParallel(g, threads)
	return &IndexedTruss{G: g, Inc: cliques.BuildEdgeIncidence(g, deg, threads), deg: deg}
}

func (t *IndexedTruss) R() int        { return 2 }
func (t *IndexedTruss) S() int        { return 3 }
func (t *IndexedTruss) NumCells() int { return int(t.G.M()) }

func (t *IndexedTruss) Degrees() []int32 {
	return append([]int32(nil), t.deg...)
}

func (t *IndexedTruss) VisitSCliques(e int32, fn func(others []int32) bool) {
	row := t.Inc.Pairs[t.Inc.Offs[e]:t.Inc.Offs[e+1]]
	for i := 0; i+2 <= len(row); i += 2 {
		if !fn(row[i : i+2 : i+2]) {
			return
		}
	}
}

func (t *IndexedTruss) VisitNeighbors(e int32, fn func(int32) bool) {
	row := t.Inc.Pairs[t.Inc.Offs[e]:t.Inc.Offs[e+1]]
	for _, d := range row {
		if !fn(d) {
			return
		}
	}
}

func (t *IndexedTruss) CellVertices(e int32, buf []uint32) []uint32 {
	u, v := t.G.Edge(int64(e))
	return append(buf, u, v)
}

func (t *IndexedTruss) CellLabel(e int32) string {
	u, v := t.G.Edge(int64(e))
	return fmt.Sprintf("e(%d,%d)", u, v)
}

func (t *IndexedTruss) FlatIncidenceArrays() ([]int64, []int32, int) {
	return t.Inc.Offs, t.Inc.Pairs, 2
}

// IndexedN34 is the (3,4) instance over a flat 4-clique incidence index:
// identical semantics to N34, but every VisitSCliques is a contiguous
// array scan instead of a three-way adjacency intersection plus three
// triangle-id map lookups per 4-clique.
type IndexedN34 struct {
	G   *graph.Graph
	Idx *cliques.TriangleIndex
	Inc *cliques.K4Incidence
	deg []int32
}

// NewIndexedN34 enumerates and indexes all triangles, counts 4-cliques per
// triangle in parallel, and materializes the flat incidence index.
func NewIndexedN34(g *graph.Graph, threads int) *IndexedN34 {
	idx := cliques.BuildTriangleIndexThreads(g, threads)
	deg := idx.K4DegreePerTriangleParallel(g, threads)
	return &IndexedN34{G: g, Idx: idx, Inc: cliques.BuildK4Incidence(g, idx, deg, threads), deg: deg}
}

func (n *IndexedN34) R() int        { return 3 }
func (n *IndexedN34) S() int        { return 4 }
func (n *IndexedN34) NumCells() int { return n.Idx.Len() }

func (n *IndexedN34) Degrees() []int32 {
	return append([]int32(nil), n.deg...)
}

func (n *IndexedN34) VisitSCliques(t int32, fn func(others []int32) bool) {
	row := n.Inc.Triples[n.Inc.Offs[t]:n.Inc.Offs[t+1]]
	for i := 0; i+3 <= len(row); i += 3 {
		if !fn(row[i : i+3 : i+3]) {
			return
		}
	}
}

func (n *IndexedN34) VisitNeighbors(t int32, fn func(int32) bool) {
	row := n.Inc.Triples[n.Inc.Offs[t]:n.Inc.Offs[t+1]]
	for _, d := range row {
		if !fn(d) {
			return
		}
	}
}

func (n *IndexedN34) CellVertices(t int32, buf []uint32) []uint32 {
	tri := n.Idx.List[t]
	return append(buf, tri[0], tri[1], tri[2])
}

func (n *IndexedN34) CellLabel(t int32) string {
	tri := n.Idx.List[t]
	return fmt.Sprintf("t(%d,%d,%d)", tri[0], tri[1], tri[2])
}

func (n *IndexedN34) FlatIncidenceArrays() ([]int64, []int32, int) {
	return n.Inc.Offs, n.Inc.Triples, 3
}

// ---------------------------------------------------------------------------
// Adaptive construction.

// Family identifies one of the first-class (r,s) cell families.
type Family int

// The first-class families.
const (
	FamilyCore  Family = iota // (1,2): cells are vertices
	FamilyTruss               // (2,3): cells are edges
	FamilyN34                 // (3,4): cells are triangles
)

func (f Family) String() string {
	switch f {
	case FamilyCore:
		return "core"
	case FamilyTruss:
		return "truss"
	case FamilyN34:
		return "n34"
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// ParseFamily maps the normalized decomposition names used across the
// library ("core", "truss", "n34") to a Family.
func ParseFamily(s string) (Family, error) {
	switch s {
	case "core":
		return FamilyCore, nil
	case "truss":
		return FamilyTruss, nil
	case "n34":
		return FamilyN34, nil
	}
	return 0, fmt.Errorf("nucleus: unknown family %q (want core, truss or n34)", s)
}

// DefaultIndexBudget is the flat-index memory budget, in bytes, that the
// library's Decompose and the server apply to one instance: past it, Build
// falls back to the on-the-fly instance.
const DefaultIndexBudget int64 = 1 << 30 // 1 GiB

// BuildReport describes what Build constructed.
type BuildReport struct {
	Family Family
	// Indexed is true when a flat incidence index was materialized.
	Indexed bool
	// EstimatedBytes is the pre-build estimate of the flat index size that
	// was compared against the budget (0 for core, which needs no index:
	// its s-clique structure is the CSR adjacency itself).
	EstimatedBytes int64
	// IndexBytes is the memory actually held by the built index arrays
	// (0 when Indexed is false).
	IndexBytes int64
	// Reason explains why no index was built; empty when Indexed.
	Reason string
}

// Build constructs the instance for a family, materializing the flat
// s-clique incidence index when its estimated size fits the memory budget
// and falling back to the on-the-fly instance otherwise (the paper's §5
// stance: never let the index OOM what the intersection-based instance
// could still serve). memBudget is in bytes: 0 never indexes, a negative
// budget is unlimited. The s-degree counting pass — needed by indexed and
// on-the-fly instances alike — runs on the given thread count either way,
// and its counts are reused as the exact index-size estimate, so deciding
// costs nothing beyond what instance construction already pays.
func Build(g *graph.Graph, fam Family, memBudget int64, threads int) (Instance, BuildReport) {
	rep := BuildReport{Family: fam}
	switch fam {
	case FamilyCore:
		rep.Reason = "core needs no index: CSR adjacency already is the (1,2) incidence"
		return NewCore(g), rep
	case FamilyTruss:
		deg := cliques.CountPerEdgeParallel(g, threads)
		if g.M() > math.MaxInt32 {
			rep.Reason = "graph exceeds int32 edge cells"
			return &Truss{G: g, deg: deg}, rep
		}
		rep.EstimatedBytes = cliques.EdgeIncidenceBytes(g.M(), sumInt32(deg))
		if !withinBudget(rep.EstimatedBytes, memBudget) {
			rep.Reason = overBudgetReason(rep.EstimatedBytes, memBudget)
			return &Truss{G: g, deg: deg}, rep
		}
		inst := &IndexedTruss{G: g, Inc: cliques.BuildEdgeIncidence(g, deg, threads), deg: deg}
		rep.Indexed = true
		rep.IndexBytes = inst.Inc.Bytes()
		return inst, rep
	case FamilyN34:
		idx := cliques.BuildTriangleIndexThreads(g, threads)
		deg := idx.K4DegreePerTriangleParallel(g, threads)
		rep.EstimatedBytes = cliques.K4IncidenceBytes(int64(idx.Len()), sumInt32(deg))
		if !withinBudget(rep.EstimatedBytes, memBudget) {
			rep.Reason = overBudgetReason(rep.EstimatedBytes, memBudget)
			return &N34{G: g, Idx: idx, deg: deg}, rep
		}
		inst := &IndexedN34{G: g, Idx: idx, Inc: cliques.BuildK4Incidence(g, idx, deg, threads), deg: deg}
		rep.Indexed = true
		rep.IndexBytes = inst.Inc.Bytes()
		return inst, rep
	}
	panic(fmt.Sprintf("nucleus: unknown family %d", int(fam)))
}

func withinBudget(estimate, budget int64) bool {
	if budget < 0 {
		return true
	}
	return estimate <= budget
}

func overBudgetReason(estimate, budget int64) string {
	if budget == 0 {
		return "indexing disabled (budget 0)"
	}
	return fmt.Sprintf("estimated index size %d exceeds budget %d", estimate, budget)
}

func sumInt32(vals []int32) int64 {
	var s int64
	for _, v := range vals {
		s += int64(v)
	}
	return s
}

// OnTheFly returns the on-the-fly instance over the same cells as inst,
// sharing its graph, triangle index and s-degrees but not its flat
// incidence index, so a caller that keeps only the result lets the index
// be collected. Instances without an index are returned as they are.
func OnTheFly(inst Instance) Instance {
	switch in := inst.(type) {
	case *IndexedTruss:
		return &Truss{G: in.G, deg: in.deg}
	case *IndexedN34:
		return &N34{G: in.G, Idx: in.Idx, deg: in.deg}
	}
	return inst
}
