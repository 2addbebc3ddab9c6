package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"

	"nucleus/internal/dataset"
	"nucleus/internal/graph"
)

// genSpec is one seeded graph family at a fixed size. req is the body of
// POST /graphs/{name}/generate without the seed, and build makes the same
// graph locally (the server runs the same generator), so every answer can
// be checked against an oracle on identical input.
type genSpec struct {
	label string
	req   map[string]any
	build func(seed int64) *graph.Graph
}

func (g genSpec) request(seed int64) map[string]any {
	out := map[string]any{"seed": seed}
	for k, v := range g.req {
		out[k] = v
	}
	return out
}

func planted(communities, size int, p float64, inter int) genSpec {
	return genSpec{
		label: fmt.Sprintf("planted(communities=%d,size=%d,p=%g,inter=%d)", communities, size, p, inter),
		req: map[string]any{"generator": "planted", "communities": communities, "size": size,
			"p": p, "interEdges": inter},
		build: func(seed int64) *graph.Graph {
			return graph.PlantedCommunities(communities, size, p, inter, seed)
		},
	}
}

func rmat(scale, ef int, a, b, c float64) genSpec {
	return genSpec{
		label: fmt.Sprintf("rmat(scale=%d,edgeFactor=%d,a=%g,b=%g,c=%g)", scale, ef, a, b, c),
		req: map[string]any{"generator": "rmat", "scale": scale, "edgeFactor": ef,
			"a": a, "b": b, "c": c},
		build: func(seed int64) *graph.Graph { return graph.RMAT(scale, ef, a, b, c, seed) },
	}
}

func powerLawCluster(n, k int, p float64) genSpec {
	return genSpec{
		label: fmt.Sprintf("plc(n=%d,k=%d,p=%g)", n, k, p),
		req:   map[string]any{"generator": "plc", "n": n, "k": k, "p": p},
		build: func(seed int64) *graph.Graph { return graph.PowerLawCluster(n, k, p, seed) },
	}
}

// logNormal has no server generator; only the library phase uses it.
func logNormal(n int, mu, sigma float64) genSpec {
	return genSpec{
		label: fmt.Sprintf("lognormal(n=%d,mu=%g,sigma=%g)", n, mu, sigma),
		build: func(seed int64) *graph.Graph { return graph.LogNormalDegrees(n, mu, sigma, seed) },
	}
}

// registry is the internal/dataset graph under key; it ignores the seed
// (the registry fixes its own) and is only used by the library phase.
func registry(key string) genSpec {
	d := dataset.Get(key)
	return genSpec{
		label: fmt.Sprintf("dataset %s: %s", key, d.Substitute),
		build: func(int64) *graph.Graph { return d.Graph() },
	}
}

// familyParams is what a workload fixes: the graph family and size of
// each phase.
//
// Explore sessions generate a new graph from a new seed each time. The
// fleet and scaling graphs have a fixed structure, so run-to-run
// differences come from the seeded edit, read and labeling streams rather
// than from one skewed graph happening to hold a larger hub; the run seed
// permutes the scaling graphs' vertex ids. The scaling graphs are the
// internal/dataset registry's fb, tw and wn as they are. Its sse, whose
// (3,4) decomposition alone takes minutes per round at 1 and 2 threads,
// is replaced by a scale-9 RMAT of the same skew, labelled rmat-s9 so it
// is not mistaken for the registry graph.
type familyParams struct {
	explore genSpec
	fleet   genSpec
	scaling map[string]genSpec // input label → family
}

var families = map[string]familyParams{
	"community": {
		explore: planted(30, 90, 0.35, 3000),
		fleet:   planted(40, 40, 0.15, 1500),
		scaling: map[string]genSpec{"fb": registry("fb"), "tw": registry("tw")},
	},
	"skewed": {
		explore: rmat(11, 8, 0.57, 0.19, 0.19),
		fleet:   rmat(11, 6, 0.57, 0.19, 0.19),
		scaling: map[string]genSpec{"rmat-s9": rmat(9, 8, 0.57, 0.19, 0.19), "wn": registry("wn")},
	},
}

// structureSeed seeds the fixed-structure graphs of the fleet phase and
// the generated scaling graphs.
const structureSeed = 20180901

// relabel returns g with its vertex ids permuted by a permutation drawn
// from seed: the same structure under another labeling.
func relabel(g *graph.Graph, seed int64) *graph.Graph {
	perm := rand.New(rand.NewSource(seed)).Perm(g.N())
	edges := edgeList(g)
	for i, e := range edges {
		edges[i] = [2]uint32{uint32(perm[e[0]]), uint32(perm[e[1]])}
	}
	return graph.Build(g.N(), edges)
}

// subSeed derives the seed of the i-th input of a stream from the run
// seed, so inputs differ between streams and between runs.
func subSeed(seed int64, stream string, i int) int64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h ^= uint64(seed) * 0x9E3779B97F4A7C15
	h ^= uint64(i) * 0xBF58476D1CE4E5B9
	h ^= h >> 31
	return int64(h & 0x7fffffffffffffff)
}

// hostFacts are the facts that make two results comparable: numbers from
// different hosts must never be compared.
func hostFacts(dataDir string) map[string]any {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goVersion":  runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"dataFS":     fsName(dataDir),
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		facts["kernel"] = utsString(u.Release[:])
	}
	return facts
}

func utsString[T int8 | uint8](b []T) string {
	out := make([]byte, 0, len(b))
	for _, c := range b {
		if c == 0 {
			break
		}
		out = append(out, byte(c))
	}
	return string(out)
}

// fsName names the filesystem holding dir from its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
