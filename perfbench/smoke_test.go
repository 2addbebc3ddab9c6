package main

import (
	"testing"
)

// TestSmoke runs both workloads end to end at smoke-test sizes, untraced
// and traced: every answer must pass its check and every metric of the
// result line must be measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take several seconds")
	}
	for _, workload := range []string{"community", "skewed"} {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				workload: workload,
				seed:     7,
				seconds:  3,
				trace:    traced,
				nproc:    2,
				dataDir:  t.TempDir(),
				setups:   2,
				family:   tinyFamilies[workload],
			}
			res, tl, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", workload, traced, err)
			}
			if a, f := tl.counts(); f != 0 || a == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed: %v", workload, traced, f, a, tl.reasonList())
			}
			if traced {
				for _, m := range perLayer {
					if _, ok := res.layers[m.name]; !ok {
						t.Fatalf("%s: per-layer metric %s missing", workload, m.name)
					}
				}
				continue
			}
			for _, m := range endToEnd {
				if v, ok := res.e2e[m.name]; !ok || v <= 0 {
					t.Fatalf("%s: end-to-end metric %s = %v (present %v), want > 0", workload, m.name, v, ok)
				}
			}
			if len(res.facts["setup_s_samples"].([]float64)) != 2 {
				t.Fatalf("%s: want two set-ups, got %v", workload, res.facts["setup_s_samples"])
			}
		}
	}
}

// tinyFamilies are the smoke-test sizes: every code path, a fraction of
// the work.
var tinyFamilies = map[string]familyParams{
	"community": {
		explore: planted(4, 16, 0.5, 20),
		fleet:   planted(6, 12, 0.4, 30),
		scaling: map[string]genSpec{"planted": planted(4, 14, 0.5, 20), "plc": powerLawCluster(120, 4, 0.5)},
	},
	"skewed": {
		explore: rmat(7, 4, 0.57, 0.19, 0.19),
		fleet:   rmat(7, 4, 0.57, 0.19, 0.19),
		scaling: map[string]genSpec{"rmat": rmat(7, 4, 0.57, 0.19, 0.19), "lognormal": logNormal(200, 1.2, 1.3)},
	},
}
