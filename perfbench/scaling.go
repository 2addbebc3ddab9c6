package main

import (
	"fmt"
	"sort"
	"time"

	"nucleus"
	"nucleus/internal/graph"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// The scaling phase measures the paper's own claim, wall clock: local AND
// and SND against peeling, each to exact κ, at 1 and nproc threads,
// through the public nucleus.Decompose (the library's on-the-fly instance
// path, which the server never takes). No HTTP, sched, store, replica or
// router is involved. SND runs at nproc threads only: no metric reads its
// 1-thread time, and on the community inputs it was a third of a round.

var (
	scalingDecs = []nucleus.Decomposition{nucleus.KCore, nucleus.KTruss, nucleus.Nucleus34}
	scalingAlgs = []nucleus.Algorithm{nucleus.AND, nucleus.SND, nucleus.Peel}
)

type scalingInput struct {
	key    string
	g      *graph.Graph
	oracle map[nucleus.Decomposition][]int32
}

// cell is one timed call: an input, a decomposition, an algorithm and
// a thread count (0 for one thread, 1 for nproc).
type cell struct {
	input   int
	dec     nucleus.Decomposition
	alg     nucleus.Algorithm
	threads int
}

// roundTimes holds one round's seconds per cell.
type roundTimes map[cell]float64

func setupScaling(cfg runConfig) ([]*scalingInput, error) {
	keys := make([]string, 0, len(cfg.family.scaling))
	for k := range cfg.family.scaling {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []*scalingInput
	for i, k := range keys {
		g := relabel(cfg.family.scaling[k].build(subSeed(structureSeed, "scaling-"+k, i)), subSeed(cfg.seed, "scaling-"+k, i))
		// Warm-up: one cheap pass so heap growth and page faults land in
		// set-up, not in the first timed round.
		nucleus.Decompose(g, nucleus.KCore, nucleus.Options{Algorithm: nucleus.AND, Threads: cfg.nproc})
		out = append(out, &scalingInput{key: k, g: g})
	}
	return out, nil
}

// round decomposes every input with every decomposition and algorithm,
// at 1 and nproc threads back to back (SND at nproc only), and checks
// each κ against the sequential peel outside the timed call.
func round(cfg runConfig, tr *tracer, inputs []*scalingInput, tl *tally) roundTimes {
	rt := roundTimes{}
	threads := [2]int{1, cfg.nproc}
	for i, in := range inputs {
		for _, dec := range scalingDecs {
			for _, alg := range scalingAlgs {
				for ti, th := range threads {
					if alg == nucleus.SND && ti == 0 {
						continue
					}
					tl.attempt()
					sp := tr.beginOp("library.decompose")
					t0 := time.Now()
					res := nucleus.Decompose(in.g, dec, nucleus.Options{Algorithm: alg, Threads: th})
					sec := time.Since(t0).Seconds()
					sp.end()
					rt[cell{i, dec, alg, ti}] = sec
					if !res.Converged || !equalKappa(res.Kappa, in.oracle[dec]) {
						tl.fail(fmt.Sprintf("scaling %s %v %v threads=%d: κ differs from peel.Run", in.key, dec, alg, th))
					}
				}
			}
		}
	}
	return rt
}

// rounds runs whole rounds until seconds have passed (at least one).
func rounds(cfg runConfig, tr *tracer, inputs []*scalingInput, seconds float64, tl *tally) []roundTimes {
	var out []roundTimes
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds() < seconds {
		out = append(out, round(cfg, tr, inputs, tl))
	}
	return out
}

// summarize reduces rounds to the end-to-end metrics: each cell's
// median over the rounds, summed per algorithm at nproc threads, and the
// 1-thread over nproc-thread ratio of those sums on the same inputs.
// Taking the median per cell before summing keeps one disturbed call
// from moving a whole round.
func summarize(rs []roundTimes) map[string]float64 {
	per := map[cell][]float64{}
	for _, r := range rs {
		for c, sec := range r {
			per[c] = append(per[c], sec)
		}
	}
	sum := map[nucleus.Algorithm]*[2]float64{}
	for _, alg := range scalingAlgs {
		sum[alg] = &[2]float64{}
	}
	for c, v := range per {
		sum[c.alg][c.threads] += median(v)
	}
	return map[string]float64{
		"and_s":        sum[nucleus.AND][1],
		"snd_s":        sum[nucleus.SND][1],
		"peel_s":       sum[nucleus.Peel][1],
		"and_speedup":  sum[nucleus.AND][0] / sum[nucleus.AND][1],
		"peel_speedup": sum[nucleus.Peel][0] / sum[nucleus.Peel][1],
	}
}

// scalingPhase accumulates the scaling phase's rounds, untraced and
// traced apart.
type scalingPhase struct {
	cfg           runConfig
	tr            *tracer
	tl            *tally
	inputs        []*scalingInput
	plain, traced []roundTimes
}

func setupScalingPhase(cfg runConfig, tr *tracer, tl *tally) (phase, error) {
	inputs, err := setupScaling(cfg)
	if err != nil {
		return nil, err
	}
	return &scalingPhase{cfg: cfg, tr: tr, tl: tl, inputs: inputs}, nil
}

func (p *scalingPhase) close() {}

func (p *scalingPhase) measure(seconds float64, traced bool) error {
	if p.inputs[0].oracle == nil {
		// The oracle is the sequential peel, computed once, untimed.
		for _, in := range p.inputs {
			in.oracle = map[nucleus.Decomposition][]int32{
				nucleus.KCore:     peel.Run(inucleus.NewCore(in.g)).Kappa,
				nucleus.KTruss:    peel.Run(inucleus.NewTruss(in.g)).Kappa,
				nucleus.Nucleus34: peel.Run(inucleus.NewN34(in.g)).Kappa,
			}
		}
	}
	if traced {
		p.traced = append(p.traced, rounds(p.cfg, p.tr, p.inputs, seconds, p.tl)...)
	} else {
		p.plain = append(p.plain, rounds(p.cfg, nil, p.inputs, seconds, p.tl)...)
	}
	return nil
}

func (p *scalingPhase) finish(pr *phaseResult) error {
	var labels []string
	for _, in := range p.inputs {
		labels = append(labels, fmt.Sprintf("%s=%s (n=%d, m=%d)", in.key, p.cfg.family.scaling[in.key].label, in.g.N(), in.g.M()))
	}
	pr.facts["clients"] = 1
	pr.facts["threads"] = fmt.Sprintf("1 and %d", p.cfg.nproc)
	pr.facts["graphs"] = labels
	pr.facts["rounds"] = len(p.plain) + len(p.traced)
	if !p.cfg.trace {
		for k, v := range summarize(p.plain) {
			pr.e2e[k] = v
		}
		return nil
	}
	L := pr.layers
	L["trace.overhead_frac.scaling"] = summarize(p.traced)["and_s"]/summarize(p.plain)["and_s"] - 1
	p.tr.on.Store(true)
	defer p.tr.on.Store(false)
	sums := map[string]float64{}
	for _, in := range p.inputs {
		for k, v := range replayCompute(p.tr, in.g, p.cfg.nproc, budgetSweeps) {
			sums[k] += v
		}
	}
	for _, m := range computeLayers {
		v := sums[m.name]
		switch m.name {
		case "localhi.sweep_ms", "localhi.updates_per_visit", "localhi.budget_exact_frac":
			v /= float64(len(p.inputs)) // ratios: mean over the inputs
		}
		L["scaling."+m.name] = v
	}
	return nil
}
