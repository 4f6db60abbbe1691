// Package workload generates the deterministic synthetic inputs that stand
// in for the paper's proprietary workloads: SPEC CPU memory traces for the
// Figure 11 overhead study, Zipf text corpora for the MapReduce WordCount
// experiments (Figures 12-13), and power-law graphs for the PageRank/GAS
// experiment (Figure 14).
//
// SPEC binaries cannot ship with this repository, so each benchmark is
// modeled by its memory behaviour: footprint, temporal locality, write
// fraction and memory intensity. Those four parameters are what determine
// the MMT controller's tree-node cache behaviour, which is all Figure 11
// measures. The parameter sets below span the same spectrum the SPEC suite
// does, from cache-friendly (perlbench-like) to streaming (lbm-like) and
// pointer-chasing (mcf-like); DESIGN.md records this substitution.
package workload

import (
	"math/rand"
)

// TraceConfig parameterises one benchmark-like memory trace.
type TraceConfig struct {
	Name string
	// FootprintLines is the working set in 64-byte lines.
	FootprintLines int
	// HotFrac is the fraction of the footprint forming the hot set.
	HotFrac float64
	// Locality is the probability an access lands in the hot set.
	Locality float64
	// WriteFrac is the store fraction.
	WriteFrac float64
	// ComputeCyclesPerAccess models memory intensity: average CPU cycles
	// of pure compute between memory accesses (lower = more memory bound,
	// hence more sensitive to protection overhead).
	ComputeCyclesPerAccess float64
}

// SPECTraces returns the benchmark models used for Figure 11, ordered as
// plotted. Footprints are paper scale (up to ~1.5 GB of secure heap in
// 64-byte lines) so that the upper tree levels contend for the 32 KB MMT
// node cache exactly as they would on the 2 GB Gem5 configuration; the
// trace substrate is timing-only, so no real memory backs them.
//
// The traces model post-LLC behaviour: each access is a DRAM access, and
// ComputeCyclesPerAccess is the CPU work (including cache hits) between
// two DRAM accesses, taken from the usual memory-intensity ordering of the
// suite (mcf/lbm/libquantum memory-bound; perlbench/sjeng/gobmk
// compute-bound).
func SPECTraces() []TraceConfig {
	return []TraceConfig{
		{Name: "perlbench", FootprintLines: 512 << 10, HotFrac: 0.002, Locality: 0.97, WriteFrac: 0.30, ComputeCyclesPerAccess: 3860},
		{Name: "bzip2", FootprintLines: 2 << 20, HotFrac: 0.004, Locality: 0.92, WriteFrac: 0.35, ComputeCyclesPerAccess: 1659},
		{Name: "gcc", FootprintLines: 3 << 20, HotFrac: 0.003, Locality: 0.88, WriteFrac: 0.30, ComputeCyclesPerAccess: 960},
		{Name: "mcf", FootprintLines: 16 << 20, HotFrac: 0.001, Locality: 0.35, WriteFrac: 0.25, ComputeCyclesPerAccess: 576},
		{Name: "milc", FootprintLines: 12 << 20, HotFrac: 0.002, Locality: 0.50, WriteFrac: 0.40, ComputeCyclesPerAccess: 736},
		{Name: "gobmk", FootprintLines: 1 << 20, HotFrac: 0.004, Locality: 0.93, WriteFrac: 0.25, ComputeCyclesPerAccess: 2085},
		{Name: "sjeng", FootprintLines: 1536 << 10, HotFrac: 0.003, Locality: 0.90, WriteFrac: 0.20, ComputeCyclesPerAccess: 3066},
		{Name: "libquantum", FootprintLines: 8 << 20, HotFrac: 0.001, Locality: 0.20, WriteFrac: 0.50, ComputeCyclesPerAccess: 745},
		{Name: "omnetpp", FootprintLines: 6 << 20, HotFrac: 0.002, Locality: 0.60, WriteFrac: 0.35, ComputeCyclesPerAccess: 796},
		{Name: "xalancbmk", FootprintLines: 4 << 20, HotFrac: 0.002, Locality: 0.75, WriteFrac: 0.30, ComputeCyclesPerAccess: 922},
		{Name: "lbm", FootprintLines: 24 << 20, HotFrac: 0.001, Locality: 0.10, WriteFrac: 0.55, ComputeCyclesPerAccess: 691},
		{Name: "astar", FootprintLines: 5 << 20, HotFrac: 0.002, Locality: 0.70, WriteFrac: 0.30, ComputeCyclesPerAccess: 987},
	}
}

// Trace is a deterministic access-stream generator.
type Trace struct {
	cfg TraceConfig
	rng *rand.Rand
	hot int // hot-set size in lines
}

// NewTrace builds a generator for cfg with a fixed seed.
func NewTrace(cfg TraceConfig, seed int64) *Trace {
	hot := int(float64(cfg.FootprintLines) * cfg.HotFrac)
	if hot < 1 {
		hot = 1
	}
	return &Trace{cfg: cfg, rng: rand.New(rand.NewSource(seed)), hot: hot}
}

// Next returns the next access: a line index within the footprint and
// whether it is a store.
func (t *Trace) Next() (line int, write bool) {
	if t.rng.Float64() < t.cfg.Locality {
		line = t.rng.Intn(t.hot)
	} else {
		line = t.rng.Intn(t.cfg.FootprintLines)
	}
	return line, t.rng.Float64() < t.cfg.WriteFrac
}

// vocabulary for corpus generation; ranks follow a Zipf law like natural
// text, which gives WordCount a realistically skewed reduce phase.
var vocabulary = []string{
	"the", "of", "and", "to", "in", "a", "is", "that", "for", "it",
	"as", "was", "with", "be", "by", "on", "not", "he", "i", "this",
	"are", "or", "his", "from", "at", "which", "but", "have", "an", "had",
	"they", "you", "were", "their", "one", "all", "we", "can", "her", "has",
	"there", "been", "if", "more", "when", "will", "would", "who", "so", "no",
	"memory", "secure", "tree", "node", "enclave", "counter", "cache", "root",
	"integrity", "network", "transfer", "remote", "closure", "forest", "key",
}

// Corpus generates approximately targetBytes of Zipf-distributed text.
func Corpus(seed int64, targetBytes int) []byte {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(len(vocabulary)-1))
	out := make([]byte, 0, targetBytes+16)
	for len(out) < targetBytes {
		out = append(out, vocabulary[zipf.Uint64()]...)
		out = append(out, ' ')
	}
	return out[:targetBytes]
}

// Graph is an unweighted directed graph in edge-list form.
type Graph struct {
	N     int
	Edges [][2]int32
}

// RandomGraph builds a graph with Zipf-distributed edge lengths: most
// edges land near their source (community locality), a heavy tail reaches
// far away. Real partitioned graphs look like this, and it is what gives
// the paper's regime of ~100k vertices with only ~60k cross-machine edges
// under a blocked partition.
func RandomGraph(seed int64, n, avgDeg int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(n-2))
	g := &Graph{N: n, Edges: make([][2]int32, 0, n*avgDeg)}
	for v := 0; v < n; v++ {
		deg := 1 + rng.Intn(2*avgDeg-1) // mean avgDeg
		for e := 0; e < deg; e++ {
			offset := int(zipf.Uint64()) + 1
			if rng.Intn(2) == 0 {
				offset = -offset
			}
			u := ((v+offset)%n + n) % n
			if u == v {
				continue
			}
			g.Edges = append(g.Edges, [2]int32{int32(v), int32(u)})
		}
	}
	return g
}

// Partition assigns contiguous vertex blocks to machines (the locality-
// preserving layout distributed graph engines use) and reports the
// cross-machine edge count — the traffic the remote-transfer phase of
// Figure 14 must carry.
func (g *Graph) Partition(machines int) (owner []int, crossEdges int) {
	owner = make([]int, g.N)
	per := (g.N + machines - 1) / machines
	for v := range owner {
		owner[v] = v / per
	}
	for _, e := range g.Edges {
		if owner[e[0]] != owner[e[1]] {
			crossEdges++
		}
	}
	return owner, crossEdges
}
