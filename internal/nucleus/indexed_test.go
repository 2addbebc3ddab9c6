// Black-box tests for the indexed instances and the adaptive Build
// constructor: the external test package lets these property tests run the
// localhi and peel engines (which import nucleus) on both instance
// flavours and demand identical decompositions.
package nucleus_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// propertyGraphs returns the seeded random graphs the agreement properties
// run on: dense, skewed, sparse and degenerate shapes.
func propertyGraphs() []*graph.Graph {
	gs := []*graph.Graph{
		graph.Complete(7),
		graph.Figure2(),
		graph.PlantedCommunities(3, 12, 0.6, 30, 5),
		graph.PowerLawCluster(300, 5, 0.5, 9),
		graph.Path(6),
		graph.Build(0, nil),
	}
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 4; i++ {
		n := 30 + rng.Intn(60)
		m := n * (2 + rng.Intn(4))
		gs = append(gs, graph.GnM(n, m, rng.Int63()))
	}
	return gs
}

// sCliqueMultiset renders cell c's s-clique list as a canonical multiset
// (each clique's co-members sorted, then the cliques sorted).
func sCliqueMultiset(inst nucleus.Instance, c int32) []string {
	var out []string
	inst.VisitSCliques(c, func(others []int32) bool {
		cp := append([]int32(nil), others...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		out = append(out, fmt.Sprint(cp))
		return true
	})
	sort.Strings(out)
	return out
}

func assertInstancesAgree(t *testing.T, gi int, ref, idx nucleus.Instance) {
	t.Helper()
	if ref.NumCells() != idx.NumCells() {
		t.Fatalf("graph %d: cell counts %d vs %d", gi, ref.NumCells(), idx.NumCells())
	}
	refDeg, idxDeg := ref.Degrees(), idx.Degrees()
	for c := range refDeg {
		if refDeg[c] != idxDeg[c] {
			t.Fatalf("graph %d cell %d: degree %d vs %d", gi, c, refDeg[c], idxDeg[c])
		}
	}
	for c := 0; c < ref.NumCells(); c++ {
		cc := int32(c)
		want, got := sCliqueMultiset(ref, cc), sCliqueMultiset(idx, cc)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("graph %d cell %d: s-clique multisets differ:\nref %v\nidx %v", gi, c, want, got)
		}
		if ref.CellLabel(cc) != idx.CellLabel(cc) {
			t.Fatalf("graph %d cell %d: labels %q vs %q", gi, c, ref.CellLabel(cc), idx.CellLabel(cc))
		}
		rv, iv := ref.CellVertices(cc, nil), idx.CellVertices(cc, nil)
		if fmt.Sprint(rv) != fmt.Sprint(iv) {
			t.Fatalf("graph %d cell %d: vertices %v vs %v", gi, c, rv, iv)
		}
	}
	// Final κ agreement under every engine, including the fused fast path
	// the indexed instance triggers inside localhi.
	for name, run := range map[string]func(nucleus.Instance) []int32{
		"peel": func(i nucleus.Instance) []int32 { return peel.Run(i).Kappa },
		"snd":  func(i nucleus.Instance) []int32 { return localhi.Snd(i, localhi.Options{}).Tau },
		"and": func(i nucleus.Instance) []int32 {
			return localhi.And(i, localhi.Options{Notification: true, Preserve: true}).Tau
		},
		"and-par": func(i nucleus.Instance) []int32 {
			return localhi.And(i, localhi.Options{Threads: 4, Notification: true}).Tau
		},
	} {
		want, got := run(ref), run(idx)
		for c := range want {
			if want[c] != got[c] {
				t.Fatalf("graph %d engine %s cell %d: κ %d vs %d", gi, name, c, want[c], got[c])
			}
		}
	}
}

func TestIndexedTrussMatchesTruss(t *testing.T) {
	for gi, g := range propertyGraphs() {
		assertInstancesAgree(t, gi, nucleus.NewTrussThreads(g, 2), nucleus.NewIndexedTruss(g, 2))
	}
}

func TestIndexedN34MatchesN34(t *testing.T) {
	for gi, g := range propertyGraphs() {
		assertInstancesAgree(t, gi, nucleus.NewN34Threads(g, 2), nucleus.NewIndexedN34(g, 2))
	}
}

// TestOnTheFlyDropsIndex checks that the view OnTheFly takes of an
// indexed instance is the same instance without the index, and that
// instances with no index come back unchanged.
func TestOnTheFlyDropsIndex(t *testing.T) {
	for gi, g := range propertyGraphs() {
		for _, ix := range []nucleus.Instance{nucleus.NewIndexedTruss(g, 2), nucleus.NewIndexedN34(g, 2)} {
			view := nucleus.OnTheFly(ix)
			if _, ok := view.(nucleus.FlatIncidence); ok {
				t.Fatalf("graph %d (%d,%d): OnTheFly kept the flat index", gi, ix.R(), ix.S())
			}
			assertInstancesAgree(t, gi, view, ix)
		}
		for _, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewTruss(g)} {
			if nucleus.OnTheFly(inst) != inst {
				t.Fatalf("graph %d (%d,%d): OnTheFly replaced an instance with no index", gi, inst.R(), inst.S())
			}
		}
	}
}

func TestBuildBudgetAdaptivity(t *testing.T) {
	g := graph.PlantedCommunities(3, 12, 0.6, 30, 5)

	inst, rep := nucleus.Build(g, nucleus.FamilyTruss, -1, 2) // unlimited
	if _, ok := inst.(*nucleus.IndexedTruss); !ok || !rep.Indexed {
		t.Fatalf("unlimited budget: got %T (indexed=%v), want *IndexedTruss", inst, rep.Indexed)
	}
	if rep.IndexBytes != rep.EstimatedBytes {
		t.Fatalf("estimate %d != actual %d", rep.EstimatedBytes, rep.IndexBytes)
	}

	inst, rep = nucleus.Build(g, nucleus.FamilyTruss, 16, 2) // far too small
	if _, ok := inst.(*nucleus.Truss); !ok || rep.Indexed {
		t.Fatalf("tiny budget: got %T (indexed=%v), want on-the-fly *Truss", inst, rep.Indexed)
	}
	if rep.Reason == "" || rep.EstimatedBytes <= 16 {
		t.Fatalf("tiny budget: want an over-budget reason and estimate > 16, got %+v", rep)
	}

	inst, rep = nucleus.Build(g, nucleus.FamilyTruss, 0, 2) // disabled
	if _, ok := inst.(*nucleus.Truss); !ok || rep.Indexed {
		t.Fatalf("disabled: got %T (indexed=%v), want *Truss", inst, rep.Indexed)
	}

	inst, rep = nucleus.Build(g, nucleus.FamilyN34, -1, 2)
	if _, ok := inst.(*nucleus.IndexedN34); !ok || !rep.Indexed {
		t.Fatalf("n34 unlimited: got %T (indexed=%v), want *IndexedN34", inst, rep.Indexed)
	}
	inst, rep = nucleus.Build(g, nucleus.FamilyN34, 16, 2)
	if _, ok := inst.(*nucleus.N34); !ok || rep.Indexed {
		t.Fatalf("n34 tiny budget: got %T (indexed=%v), want *N34", inst, rep.Indexed)
	}

	inst, rep = nucleus.Build(g, nucleus.FamilyCore, -1, 2)
	if _, ok := inst.(*nucleus.Core); !ok || rep.Indexed {
		t.Fatalf("core: got %T (indexed=%v), want *Core", inst, rep.Indexed)
	}
}

func TestParseFamily(t *testing.T) {
	for s, want := range map[string]nucleus.Family{
		"core": nucleus.FamilyCore, "truss": nucleus.FamilyTruss, "n34": nucleus.FamilyN34,
	} {
		got, err := nucleus.ParseFamily(s)
		if err != nil || got != want {
			t.Fatalf("ParseFamily(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Family(%q).String() = %q", s, got.String())
		}
	}
	if _, err := nucleus.ParseFamily("quux"); err == nil {
		t.Fatal("ParseFamily(quux): want error")
	}
}

// TestFlatIncidenceArrays pins the interface contract the localhi fused
// kernel relies on: rows are contiguous, co-arity sized, and aligned with
// VisitSCliques.
func TestFlatIncidenceArrays(t *testing.T) {
	g := graph.Complete(6)
	for _, tc := range []struct {
		inst    nucleus.FlatIncidence
		coArity int
	}{
		{nucleus.NewIndexedTruss(g, 1), 2},
		{nucleus.NewIndexedN34(g, 1), 3},
	} {
		offs, members, co := tc.inst.FlatIncidenceArrays()
		if co != tc.coArity {
			t.Fatalf("coArity %d, want %d", co, tc.coArity)
		}
		if len(offs) != tc.inst.NumCells()+1 {
			t.Fatalf("offs length %d, want %d", len(offs), tc.inst.NumCells()+1)
		}
		if offs[len(offs)-1] != int64(len(members)) {
			t.Fatalf("final offset %d != members length %d", offs[len(offs)-1], len(members))
		}
		deg := tc.inst.Degrees()
		for c := 0; c < tc.inst.NumCells(); c++ {
			if rowLen := offs[c+1] - offs[c]; rowLen != int64(co)*int64(deg[c]) {
				t.Fatalf("cell %d: row length %d, want %d", c, rowLen, int64(co)*int64(deg[c]))
			}
		}
	}
}
