package localhi

import (
	"fmt"
	"slices"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
)

// TestParallelAndFlat runs AND on the flat indexed instances at 2 and 4
// workers under both schedules. Each run must converge to the 1-thread κ,
// and the per-worker counters must add up to the totals in Result: a lost
// or doubled per-chunk add shows up here, and under -race so does any
// worker touching another's state.
func TestParallelAndFlat(t *testing.T) {
	g := graph.PlantedCommunities(4, 30, 0.5, 60, 13)
	for _, inst := range []nucleus.Instance{nucleus.NewIndexedTruss(g, 2), nucleus.NewIndexedN34(g, 2)} {
		for _, notify := range []bool{true, false} {
			ref := And(inst, Options{Notification: notify})
			if !ref.Converged {
				t.Fatalf("(%d,%d): 1-thread AND did not converge", inst.R(), inst.S())
			}
			for _, sched := range []Scheduling{Static, Dynamic} {
				for _, th := range []int{2, 4} {
					name := fmt.Sprintf("(%d,%d) notify=%v sched=%d threads=%d", inst.R(), inst.S(), notify, sched, th)
					res, sw := and(inst, Options{Threads: th, Scheduling: sched, ChunkSize: 16, Notification: notify})
					if !res.Converged || !slices.Equal(res.Tau, ref.Tau) {
						t.Fatalf("%s: converged=%v, κ differs from the 1-thread run", name, res.Converged)
					}
					if len(sw.workers) != th {
						t.Fatalf("%s: %d workers", name, len(sw.workers))
					}
					want := counts{updates: res.Updates, visits: res.WorkVisits, skipped: res.SkippedCells}
					if got := sw.totals(); got != want {
						t.Fatalf("%s: workers counted %+v, Result reports %+v", name, got, want)
					}
					var perSweep int64
					for _, u := range res.SweepUpdates {
						perSweep += u
					}
					if perSweep != res.Updates {
						t.Fatalf("%s: sweeps sum to %d updates, Result reports %d", name, perSweep, res.Updates)
					}
					if notify && res.SkippedCells == 0 {
						t.Fatalf("%s: notification skipped no cells", name)
					}
					if !notify && res.SkippedCells != 0 {
						t.Fatalf("%s: %d cells skipped without notification", name, res.SkippedCells)
					}
				}
			}
		}
	}
}
