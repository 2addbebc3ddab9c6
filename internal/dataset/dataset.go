// Package dataset maps the real-world graphs of the paper's Table 3 to
// synthetic analogues that can be generated offline at laptop scale. Each
// analogue is chosen to reproduce the structural property that drives the
// paper's experiments — heavy-tailed degrees, locally dense communities, or
// web-like sparsity — because the convergence behaviour of the iterated
// h-index computation is governed by the degree-level structure (Theorem
// 3), not by the raw size. The substitution is documented per entry.
package dataset

import (
	"fmt"
	"sync"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
)

// PaperStats records the statistics the paper's Table 3 reports for the
// original graph.
type PaperStats struct {
	V, E, Tri, K4 string
}

// Dataset is one synthetic stand-in.
type Dataset struct {
	// Key is the paper's short name (e.g. "fb").
	Key string
	// Name is the paper's full dataset name.
	Name string
	// Substitute describes the generator standing in for the original.
	Substitute string
	// Paper are the original statistics from Table 3.
	Paper PaperStats
	// Heavy34 marks datasets cheap enough for the (3,4) decomposition in
	// the experiment drivers (the paper notes (3,4) is the most expensive
	// instance).
	Small34 bool
	// Gen generates the graph (deterministic).
	Gen func() *graph.Graph

	once sync.Once
	g    *graph.Graph
}

// Graph generates (once) and returns the dataset's graph.
func (d *Dataset) Graph() *graph.Graph {
	d.once.Do(func() { d.g = d.Gen() })
	return d.g
}

// Stats holds measured statistics of a generated graph.
type Stats struct {
	V, E, Tri, K4 int64
}

// Measure computes |V|, |E|, |triangles| and |4-cliques| of g, mirroring
// the columns of Table 3.
func Measure(g *graph.Graph) Stats {
	return Stats{
		V:   int64(g.N()),
		E:   g.M(),
		Tri: cliques.Count(g),
		K4:  cliques.CountK4(g),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d |tri|=%d |K4|=%d", s.V, s.E, s.Tri, s.K4)
}

var registry = []*Dataset{
	{
		Key: "fb", Name: "facebook",
		Substitute: "planted communities (20 groups × 80 vertices, p_in=0.35): locally dense social structure, triangle- and K4-rich",
		Paper:      PaperStats{"4K", "88.2K", "1.6M", "30.0M"},
		Small34:    true,
		Gen: func() *graph.Graph {
			return graph.PlantedCommunities(20, 80, 0.35, 1500, 42)
		},
	},
	{
		Key: "tw", Name: "twitter",
		Substitute: "power-law cluster graph (n=4000, k=12, p=0.5): heavy-tailed follower counts with high clustering",
		Paper:      PaperStats{"81.3K", "1.3M", "13.1M", "104.9M"},
		Small34:    true,
		Gen: func() *graph.Graph {
			return graph.PowerLawCluster(4000, 12, 0.5, 7)
		},
	},
	{
		Key: "sse", Name: "soc-sign-epinions",
		Substitute: "RMAT (scale 13, edge factor 8, skewed): trust-network degree skew",
		Paper:      PaperStats{"131.8K", "711.2K", "4.9M", "58.6M"},
		Small34:    true,
		Gen: func() *graph.Graph {
			return graph.RMAT(13, 8, 0.57, 0.19, 0.19, 11)
		},
	},
	{
		Key: "wn", Name: "web-NotreDame",
		Substitute: "log-normal Chung–Lu graph (n=6000, μ=1.2, σ=1.3): web-graph degree distribution",
		Paper:      PaperStats{"325.7K", "1.1M", "8.9M", "231.9M"},
		Small34:    true,
		Gen: func() *graph.Graph {
			return graph.LogNormalDegrees(6000, 1.2, 1.3, 19)
		},
	},
	{
		Key: "wgo", Name: "web-Google",
		Substitute: "RMAT (scale 14, edge factor 5, mildly skewed): sparse web crawl",
		Paper:      PaperStats{"916.4K", "4.3M", "13.4M", "39.9M"},
		Gen: func() *graph.Graph {
			return graph.RMAT(14, 5, 0.45, 0.25, 0.15, 23)
		},
	},
	{
		Key: "hg", Name: "soc-twitter-higgs",
		Substitute: "power-law cluster graph (n=8000, k=14, p=0.3): retweet-cascade style social graph",
		Paper:      PaperStats{"456.6K", "12.5M", "83.0M", "429.7M"},
		Gen: func() *graph.Graph {
			return graph.PowerLawCluster(8000, 14, 0.3, 29)
		},
	},
	{
		Key: "ask", Name: "as-skitter",
		Substitute: "RMAT (scale 14, edge factor 7, skewed): internet-topology skew",
		Paper:      PaperStats{"1.7M", "11.1M", "28.8M", "148.8M"},
		Gen: func() *graph.Graph {
			return graph.RMAT(14, 7, 0.57, 0.19, 0.19, 31)
		},
	},
	{
		Key: "wiki", Name: "wikipedia-200611",
		Substitute: "RMAT (scale 14, edge factor 6): large sparse hyperlink graph",
		Paper:      PaperStats{"3.1M", "37.0M", "88.8M", "162.9M"},
		Gen: func() *graph.Graph {
			return graph.RMAT(14, 6, 0.52, 0.23, 0.15, 37)
		},
	},
	{
		Key: "slj", Name: "soc-LiveJournal",
		Substitute: "RMAT (scale 14, edge factor 10): large social network",
		Paper:      PaperStats{"4.8M", "68.5M", "285.7M", "9.9B"},
		Gen: func() *graph.Graph {
			return graph.RMAT(14, 10, 0.48, 0.22, 0.22, 41)
		},
	},
	{
		Key: "ork", Name: "soc-orkut",
		Substitute: "RMAT (scale 13, edge factor 14): dense social network",
		Paper:      PaperStats{"2.9M", "106.3M", "524.6M", "2.4B"},
		Gen: func() *graph.Graph {
			return graph.RMAT(13, 14, 0.45, 0.22, 0.22, 43)
		},
	},
	{
		Key: "fri", Name: "friendster",
		Substitute: "RMAT (scale 15, edge factor 6): the paper's largest graph (Figure 1b only)",
		Paper:      PaperStats{"65.6M", "1.8B", "—", "—"},
		Gen: func() *graph.Graph {
			return graph.RMAT(15, 6, 0.48, 0.22, 0.22, 47)
		},
	},
}

// All returns every dataset in registry order.
func All() []*Dataset { return registry }

// Get returns the dataset with the given key, or nil.
func Get(key string) *Dataset {
	for _, d := range registry {
		if d.Key == key {
			return d
		}
	}
	return nil
}

// Keys returns the registry keys in order.
func Keys() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Key
	}
	return out
}

// Small34 returns the datasets flagged as affordable for the (3,4)
// decomposition.
func Small34() []*Dataset {
	var out []*Dataset
	for _, d := range registry {
		if d.Small34 {
			out = append(out, d)
		}
	}
	return out
}
