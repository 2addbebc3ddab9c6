// Command perfbench is the repository benchmark. One run drives three
// phases from a single process, each closed loop and each against the
// real code paths:
//
//   - explore: one client runs exploration sessions against an
//     in-process durable nucleusd (generate, budgeted truss query, nine
//     decomposition jobs streamed to their SSE done event, a hierarchy);
//   - fleet: a writer and a reader drive an in-process router in front of
//     a durable primary and a durable replica whose pulls the writer
//     triggers;
//   - scaling: the public library nucleus.Decompose, AND, SND and Peel at 1
//     and nproc threads, to exact κ.
//
// The workload (--workload) picks the graph structure every phase runs
// on: "community" (planted communities, power-law cluster) or "skewed"
// (RMAT, log-normal web degrees). Inputs come from --seed only. With
// --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run (spans kept
// in memory and written under --workdir). Every answer is checked
// outside the timed region; a wrong answer counts as failed.
//
// Run it through run.sh, which builds it from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // whole measured window, split across the phases
	trace    bool
	nproc    int
	dataDir  string // scratch for the durable stores
	setups   int    // set-ups of all phases; setup_s is their median
	family   familyParams
}

// phaseResult is what one phase measured, or a whole run.
type phaseResult struct {
	e2e    map[string]float64
	tails  map[string]tail
	layers map[string]float64
	facts  map[string]any
	spans  []span
}

func newPhaseResult() *phaseResult {
	return &phaseResult{
		e2e:    map[string]float64{},
		tails:  map[string]tail{},
		layers: map[string]float64{},
		facts:  map[string]any{},
	}
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "community or skewed")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 40, "measured window, split across the three phases")
		traceOn  = flag.Int("trace", 0, "1 for the traced per-layer run")
		workdir  = flag.String("workdir", ".bench_build", "directory for data, traces and result files")
	)
	flag.Parse()
	fam, ok := families[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want community or skewed)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	dataDir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceOn == 1,
		nproc:    runtime.NumCPU(),
		dataDir:  dataDir,
		setups:   5,
		family:   fam,
	}
	res, tl, err := run(cfg)
	os.RemoveAll(dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := emit(cfg, res, tl, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// phase is one of a run's three closed-loop phases. measure runs one
// slice of its window and accumulates; finish checks what is left to
// check and reports.
type phase interface {
	measure(seconds float64, traced bool) error
	finish(pr *phaseResult) error
	close()
}

var phaseSpecs = []struct {
	name  string
	share float64 // of the measured window
	setup func(runConfig, *tracer, *tally) (phase, error)
}{
	{"explore", 0.30, setupExplorePhase},
	{"fleet", 0.45, setupFleetPhase},
	{"scaling", 0.25, setupScalingPhase},
}

// slices is how many slices an untraced run cuts each phase's window
// into. The phases' slices alternate, so a slow spell of a shared host
// spreads over all phases instead of landing on one phase's whole
// window. A traced run cuts two: an untraced and a traced half.
const slices = 3

// run sets up all three phases (cfg.setups times, keeping the last),
// measures their alternating slices and merges their results.
func run(cfg runConfig) (*phaseResult, *tally, error) {
	tl := newTally()
	var tr *tracer
	modes := make([]bool, slices) // traced or not, per slice
	setups := cfg.setups
	if cfg.trace {
		tr = newTracer()
		modes = []bool{false, true}
		setups = 1
	}
	var phases []phase
	closeAll := func() {
		for _, p := range phases {
			p.close()
		}
		phases = nil
	}
	defer closeAll()
	var setupSec []float64
	for i := 0; i < setups; i++ {
		closeAll()
		runtime.GC()
		t0 := time.Now()
		for _, ps := range phaseSpecs {
			p, err := ps.setup(cfg, tr, tl)
			if err != nil {
				return nil, nil, fmt.Errorf("%s set-up: %w", ps.name, err)
			}
			phases = append(phases, p)
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}

	for _, traced := range modes {
		for i, p := range phases {
			runtime.GC() // every slice starts from a clean heap
			if tr != nil {
				tr.on.Store(traced)
			}
			if err := p.measure(phaseSpecs[i].share*cfg.seconds/float64(len(modes)), traced); err != nil {
				return nil, nil, fmt.Errorf("%s phase: %w", phaseSpecs[i].name, err)
			}
			if tr != nil {
				tr.on.Store(false)
			}
		}
	}

	all := newPhaseResult()
	for i, p := range phases {
		pr := newPhaseResult()
		if err := p.finish(pr); err != nil {
			return nil, nil, fmt.Errorf("%s phase: %w", phaseSpecs[i].name, err)
		}
		for k, v := range pr.e2e {
			all.e2e[k] = v
		}
		for k, v := range pr.tails {
			all.tails[k] = v
		}
		for k, v := range pr.layers {
			all.layers[k] = v
		}
		for k, v := range pr.facts {
			all.facts[phaseSpecs[i].name+"."+k] = v
		}
	}
	all.e2e["setup_s"] = median(setupSec)
	all.facts["setup_s_samples"] = setupSec
	if cfg.trace {
		all.spans = tr.snapshot()
		for _, layer := range selfTimeLayers {
			all.layers["selftime."+layer+"_ms"] = 0
		}
		for layer, ms := range selfByLayer(all.spans) {
			all.layers["selftime."+layer+"_ms"] = ms
		}
		all.layers["trace.spans"] = float64(len(all.spans))
	}
	return all, tl, nil
}

// endToEnd lists the end-to-end metrics in report order with their
// units. Every run reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"explore_ops_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"job_truss_p50_ms", "ms"},
	{"job_n34_p50_ms", "ms"},
	{"fleet_ops_per_s", "1/s"},
	{"mutate_p50_ms", "ms"},
	{"mutate_tail_ms", "ms"},
	{"lookup_p50_ms", "ms"},
	{"lookup_tail_ms", "ms"},
	{"replica_visible_p50_ms", "ms"},
	{"and_s", "s"},
	{"snd_s", "s"},
	{"peel_s", "s"},
	{"and_speedup", "x"},
	{"peel_speedup", "x"},
}

// emit prints the human-readable report and returns the result line. It
// also writes the full result (and, when traced, the spans) under
// workdir.
func emit(cfg runConfig, res *phaseResult, tl *tally, workdir string) (string, error) {
	attempted, failed := tl.counts()
	correct := failed == 0
	host := hostFacts(workdir)
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# host %s\n", jsonString(host))
	fmt.Printf("# setup %s\n", jsonString(res.facts))
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Printf("metric failed_frac %.6f frac (%d of %d operations)\n", tl.frac(), failed, attempted)
	for _, r := range tl.reasonList() {
		fmt.Printf("failure %s\n", r)
	}
	if cfg.trace {
		names := make([]string, 0, len(res.layers))
		for k := range res.layers {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, d := range perLayer {
			v, ok := res.layers[d.name]
			if !ok {
				return "", fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
			out.Metrics[d.name] = metric{Value: finite(v), Unit: d.unit}
		}
		for _, k := range names {
			fmt.Printf("layer %s %.6g\n", k, res.layers[k])
		}
	} else {
		for _, m := range endToEnd {
			v, ok := res.e2e[m.name]
			if !ok {
				return "", fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			extra := ""
			if t, ok := res.tails[m.name]; ok {
				extra = fmt.Sprintf(" (median p%g of %d blocks of %d samples, %d beyond in each)",
					t.Percentile, t.Blocks, t.Count/t.Blocks, t.Beyond)
			}
			fmt.Printf("metric %s %.6g %s%s\n", m.name, v, m.unit, extra)
			out.Metrics[m.name] = metric{Value: finite(v), Unit: m.unit}
		}
	}
	fmt.Printf("verdict correct=%v attempted=%d failed=%d\n", correct, attempted, failed)

	stem := filepath.Join(workdir, fmt.Sprintf("result-%s-seed%d-trace%d", cfg.workload, cfg.seed, boolInt(cfg.trace)))
	full := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host": host, "setup": res.facts, "tails": res.tails,
		"endToEnd": res.e2e, "perLayer": res.layers,
		"attempted": attempted, "failed": failed, "failures": tl.reasonList(),
	}
	if err := os.WriteFile(stem+".json", []byte(jsonString(full)), 0o644); err != nil {
		return "", err
	}
	if cfg.trace {
		data, err := json.Marshal(res.spans)
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(stem+"-spans.json", data, 0o644); err != nil {
			return "", err
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// finite keeps the result line valid JSON: a ratio over an empty
// denominator is reported as 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func jsonString(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
