package main

// stats.go holds everything the benchmark computes about its own
// measurements and inputs: quantiles and the tail rule, exact counter
// deltas (allocations, bytes, simulated cycles), and the seeded input
// generator with its op-sequence hash. Nothing here touches the program
// under test except readCounters, which reads its simulated clocks.

import (
	"math"
	"runtime"
	"sort"

	"mmt"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample by linear interpolation between the two closest ranks. An empty
// sample yields 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// p10 is the lower decile of a sample.
func p10(v []float64) float64 { return quantile(sortedCopy(v), 0.10) }

// quietWindows is how many consecutive windows quietP10 cuts a run into,
// and quietMin the fewest samples a window needs for its own decile.
const (
	quietWindows = 8
	quietMin     = 10
)

// quietP10 is the statistic behind op_p10_ns: the lower decile of the
// quietest of the run's eight consecutive windows of samples. On a shared
// machine interference comes in stretches of seconds and only ever adds
// time, so when it covers most of a run even the run's lower decile
// shifts; the quietest window's is the closest to the code's own speed.
// Over eight back-to-back 16 s runs per workload the quartile spread of
// the plain decile was 5.5 % (line-read), 5.6 % (bulk) and 8.4 %
// (persist); of this one 3.1 %, 2.4 % and 6.0 %. A run too short to
// window keeps its plain decile.
func quietP10(v []float64) float64 {
	size := len(v) / quietWindows
	if size < quietMin {
		return p10(v)
	}
	best := math.Inf(1)
	for w := 0; w < quietWindows; w++ {
		best = math.Min(best, p10(v[w*size:(w+1)*size]))
	}
	return best
}

// tailCandidates are the percentiles the tail rule picks from, ascending,
// each with the share of samples beyond it in per mille (integers, so the
// ten-sample rule is not at the mercy of 1-0.9 in floating point).
var tailCandidates = []struct {
	label  string
	q      float64
	beyond int
}{{"p50", 0.50, 500}, {"p75", 0.75, 250}, {"p90", 0.90, 100}, {"p95", 0.95, 50}, {"p99", 0.99, 10}}

// tail returns the highest candidate percentile that still has at least
// ten samples beyond it, and which one that is. A percentile with fewer
// samples above it is decided by a handful of outliers and does not
// repeat. With fewer than twenty samples no candidate qualifies and the
// median is returned.
func tail(sorted []float64) (label string, value float64) {
	label, value = "p50", quantile(sorted, 0.50)
	for _, c := range tailCandidates {
		if len(sorted)*c.beyond >= 10*1000 {
			label, value = c.label, quantile(sorted, c.q)
		}
	}
	return label, value
}

// spread is the relative range (max-min)/min of a sample: the statistic
// -repeat compares against a metric's bound. All-equal samples give 0,
// including all-zero ones.
func spread(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if hi == lo {
		return 0
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return (hi - lo) / math.Abs(lo)
}

// counters is a snapshot of the exact (host-noise-free) quantities a run
// is charged with: heap objects and bytes allocated, GC cycles, and the
// sum of the machines' simulated clocks.
type counters struct {
	mallocs, bytes uint64
	gcCycles       uint32
	heapSys        uint64
	simCycles      float64
}

// readCounters snapshots the counters. ReadMemStats stops the world, so
// it is only called at phase boundaries, never inside a timed section.
func readCounters(machines ...*mmt.Machine) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC, heapSys: ms.HeapSys}
	for _, m := range machines {
		c.simCycles += float64(m.Clock().NowCycles())
	}
	return c
}

// perOp divides the counter deltas since start by ops.
func (c counters) perOp(start counters, ops int) (allocs, bytes, cycles float64) {
	n := float64(ops)
	return float64(c.mallocs-start.mallocs) / n, float64(c.bytes-start.bytes) / n, (c.simCycles - start.simCycles) / n
}

// rng is splitmix64: a tiny, fast generator whose stream depends on the
// seed alone (not on the Go release, unlike math/rand's default source).
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, b := range []byte(stream) { // separate streams per purpose
		r.s = (r.s ^ uint64(b)) * 0x100000001b3
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// sizes used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill overwrites p with generated bytes.
func (r *rng) fill(p []byte) {
	for len(p) >= 8 {
		v := r.next()
		p[0], p[1], p[2], p[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		p[4], p[5], p[6], p[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
		p = p[8:]
	}
	if len(p) > 0 {
		v := r.next()
		for i := range p {
			p[i] = byte(v >> (8 * uint(i)))
		}
	}
}

// seqHash is FNV-1a over every input the generator hands a workload, in
// issue order: two runs drove the program with the same op sequence
// exactly when their hashes (and op counts) agree.
type seqHash uint64

func newSeqHash() seqHash { return 0xcbf29ce484222325 }

func (h *seqHash) add(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x = (x ^ (v & 0xff)) * 0x100000001b3
		v >>= 8
	}
	*h = seqHash(x)
}
