package nucleus

import (
	"testing"

	"nucleus/internal/graph"
)

// Exercise the early-stop paths of every instance's visitors.

func TestEarlyStopAllInstances(t *testing.T) {
	g := graph.Complete(6)
	for _, inst := range []Instance{NewCore(g), NewTruss(g), NewN34(g), NewHyper(g, 2, 3), NewIndexedTruss(g, 1), NewIndexedN34(g, 1)} {
		count := 0
		inst.VisitSCliques(0, func([]int32) bool {
			count++
			return false
		})
		if count != 1 {
			t.Errorf("(%d,%d): VisitSCliques early stop visited %d", inst.R(), inst.S(), count)
		}
		count = 0
		inst.VisitNeighbors(0, func(int32) bool {
			count++
			return false
		})
		if count != 1 {
			t.Errorf("(%d,%d): VisitNeighbors early stop visited %d", inst.R(), inst.S(), count)
		}
	}
}

// The materialized-index visitors must honour a stop that comes after the
// first s-clique, not only on the first.
func TestMaterializedEarlyStop(t *testing.T) {
	g := graph.Complete(6)
	for _, inst := range []Instance{NewIndexedTruss(g, 1), NewIndexedN34(g, 1)} {
		count := 0
		inst.VisitSCliques(0, func([]int32) bool {
			count++
			return count < 2
		})
		if count != 2 {
			t.Fatalf("(%d,%d): early stop ignored: %d", inst.R(), inst.S(), count)
		}
		count = 0
		inst.VisitNeighbors(0, func(int32) bool {
			count++
			return count < 2
		})
		if count != 2 {
			t.Fatalf("(%d,%d): neighbor early stop ignored: %d", inst.R(), inst.S(), count)
		}
	}
}

func TestTrussVisitNeighborsStopOnSecond(t *testing.T) {
	g := graph.Complete(4)
	inst := NewTruss(g)
	count := 0
	inst.VisitNeighbors(0, func(int32) bool {
		count++
		return count < 2 // stop on the second co-edge of the first triangle
	})
	if count != 2 {
		t.Fatalf("visited %d, want 2", count)
	}
}

func TestCellVerticesAllInstances(t *testing.T) {
	g := graph.Complete(5)
	wantLens := map[string]int{}
	for _, tc := range []struct {
		inst Instance
		want int
	}{
		{NewCore(g), 1},
		{NewTruss(g), 2},
		{NewN34(g), 3},
		{NewHyper(g, 4, 5), 4},
	} {
		vs := tc.inst.CellVertices(0, nil)
		if len(vs) != tc.want {
			t.Errorf("(%d,%d): %d vertices, want %d", tc.inst.R(), tc.inst.S(), len(vs), tc.want)
		}
		// Buffer reuse appends.
		buf := []uint32{99}
		vs2 := tc.inst.CellVertices(0, buf)
		if len(vs2) != tc.want+1 || vs2[0] != 99 {
			t.Errorf("(%d,%d): buffer not appended", tc.inst.R(), tc.inst.S())
		}
		_ = wantLens
	}
}

func TestHyperDisconnectedSmallS(t *testing.T) {
	// A graph with no s-cliques at all: every cell has degree 0.
	g := graph.Path(6)
	h := NewHyper(g, 2, 3) // edges as cells, triangles as s-cliques: none
	if h.NumCells() != 5 {
		t.Fatalf("cells = %d", h.NumCells())
	}
	for _, d := range h.Degrees() {
		if d != 0 {
			t.Fatalf("degrees = %v", h.Degrees())
		}
	}
	h.VisitSCliques(0, func([]int32) bool {
		t.Fatal("visited s-clique in triangle-free graph")
		return false
	})
	h.VisitNeighbors(0, func(int32) bool {
		t.Fatal("visited neighbor in triangle-free graph")
		return false
	})
}

// The instances with a materialized incidence index must hand out copies of
// their degree arrays too.
func TestMaterializedDegreesCopied(t *testing.T) {
	g := graph.Complete(4)
	for _, inst := range []Instance{NewIndexedTruss(g, 1), NewIndexedN34(g, 1)} {
		d1 := inst.Degrees()
		d1[0] = 99
		if inst.Degrees()[0] == 99 {
			t.Fatalf("(%d,%d): Degrees returned aliased storage", inst.R(), inst.S())
		}
	}
}

func TestCoreDegreesCopied(t *testing.T) {
	g := graph.Complete(4)
	for _, inst := range []Instance{NewTruss(g), NewN34(g), NewHyper(g, 1, 2)} {
		d1 := inst.Degrees()
		orig := d1[0]
		d1[0] = 77
		if inst.Degrees()[0] != orig {
			t.Fatalf("(%d,%d): Degrees aliased", inst.R(), inst.S())
		}
	}
}
