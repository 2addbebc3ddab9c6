package nucleus

import (
	"fmt"
	"slices"
	"testing"

	"nucleus/internal/dataset"
	"nucleus/internal/graph"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// diffGraphs are the inputs of the public-API differential suite: two
// registry graphs cut down to their first hundred-odd vertices — fb's
// planted communities (triangle- and K4-rich) and sse's skewed RMAT graph
// (hub-dominated) — plus the hand-checked fixtures.
func diffGraphs() []struct {
	name string
	g    *Graph
} {
	prefix := func(key string, n int) *Graph {
		vs := make([]uint32, n)
		for i := range vs {
			vs[i] = uint32(i)
		}
		g, _ := dataset.Get(key).Graph().InducedSubgraph(vs)
		return g
	}
	return []struct {
		name string
		g    *Graph
	}{
		{"fb160", prefix("fb", 160)},
		{"sse120", prefix("sse", 120)},
		{"figure2", graph.Figure2()},
		{"complete6", graph.Complete(6)},
		{"cliqueChain", graph.CliqueChain(2, 5)},
		{"empty", graph.Build(4, nil)},
	}
}

// referenceInstance is the reference instance of each decomposition: the
// intersection-based instance, built independently of the library's
// instance choice.
func referenceInstance(g *Graph, dec Decomposition) inucleus.Instance {
	switch dec {
	case KCore:
		return inucleus.NewCore(g)
	case KTruss:
		return inucleus.NewTruss(g)
	}
	return inucleus.NewN34(g)
}

// TestDecomposeDifferential checks the public Decompose, which runs on the
// flat indexed instance, against the sequential peel of the on-the-fly
// instance for every decomposition, algorithm and thread count; then
// checks that Order and MaxSweeps keep their meaning there, and that the
// over-budget fallback (the on-the-fly instance, reached with budget 0)
// returns the same κ. Both Results must name every cell exactly as the
// indexed instance does, although neither keeps that instance.
func TestDecomposeDifferential(t *testing.T) {
	for _, in := range diffGraphs() {
		for _, dec := range []Decomposition{KCore, KTruss, Nucleus34} {
			t.Run(fmt.Sprintf("%s/%v", in.name, dec), func(t *testing.T) {
				g := in.g
				oracle := peel.Run(referenceInstance(g, dec))
				want := oracle.Kappa

				indexed := instanceFor(g, dec, inucleus.DefaultIndexBudget, 2)
				if dec != KCore {
					if _, ok := indexed.(inucleus.FlatIncidence); !ok {
						t.Fatal("within budget but not indexed")
					}
					if _, ok := instanceFor(g, dec, 0, 2).(inucleus.FlatIncidence); ok {
						t.Fatal("budget 0 still indexed")
					}
				}
				for _, th := range []int{1, 2, 4} {
					var idx *Result
					for _, alg := range []Algorithm{AND, SND, Peel} {
						res := Decompose(g, dec, Options{Algorithm: alg, Threads: th})
						if !res.Converged || !slices.Equal(res.Kappa, want) {
							t.Fatalf("%v threads=%d: converged=%v, κ differs from peel.Run", alg, th, res.Converged)
						}
						if res.MaxKappa != oracle.MaxKappa || res.Decomposition != dec {
							t.Fatalf("%v threads=%d: MaxKappa %d (want %d), Decomposition %v",
								alg, th, res.MaxKappa, oracle.MaxKappa, res.Decomposition)
						}
						if _, ok := res.inst.(inucleus.FlatIncidence); ok {
							t.Fatalf("%v threads=%d: Result keeps the incidence index alive", alg, th)
						}
						if alg == AND {
							idx = res
						}
					}

					// Theorem 4: AND in the peeling order converges in one
					// updating sweep; with concurrent workers the order is
					// only a hint, but κ stays exact.
					ordered := Decompose(g, dec, Options{Algorithm: AND, Threads: th, Order: oracle.Order})
					if !ordered.Converged || !slices.Equal(ordered.Kappa, want) {
						t.Fatalf("ordered AND threads=%d: κ differs from peel.Run", th)
					}
					if th == 1 && ordered.Iterations > 1 {
						t.Fatalf("ordered AND took %d updating sweeps, want <= 1", ordered.Iterations)
					}

					for _, alg := range []Algorithm{AND, SND} {
						res := Decompose(g, dec, Options{Algorithm: alg, Threads: th, MaxSweeps: 1})
						if res.Sweeps > 1 {
							t.Fatalf("%v threads=%d: %d sweeps under MaxSweeps 1", alg, th, res.Sweeps)
						}
						for c, k := range want {
							if res.Kappa[c] < k {
								t.Fatalf("%v threads=%d: bounded τ(%d) = %d below κ %d", alg, th, c, res.Kappa[c], k)
							}
						}
					}

					fb := decompose(g, dec, Options{Algorithm: AND, Threads: th}, 0)
					if !fb.Converged || !slices.Equal(fb.Kappa, want) {
						t.Fatalf("fallback threads=%d: κ differs from peel.Run", th)
					}
					for c := range want {
						cell := int32(c)
						label, verts := indexed.CellLabel(cell), indexed.CellVertices(cell, nil)
						for _, r := range []*Result{idx, fb} {
							if r.CellLabel(cell) != label || !slices.Equal(r.CellVertices(cell), verts) {
								t.Fatalf("threads=%d: cell %d is %s %v in a Result, %s %v in the indexed instance",
									th, c, r.CellLabel(cell), r.CellVertices(cell), label, verts)
							}
						}
					}
				}
			})
		}
	}
}
