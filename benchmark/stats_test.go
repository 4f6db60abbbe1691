package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.10, 14}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50}, {-1, 10}, {2, 50},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
	if got := p10([]float64{50, 10, 40, 20, 30}); math.Abs(got-14) > 1e-9 {
		t.Errorf("p10 must sort its input: got %v, want 14", got)
	}
}

// op_p10_ns is the lower decile of the quietest eighth of a run.
func TestQuietP10(t *testing.T) {
	short := []float64{5, 1, 4, 2, 3}
	if got, want := quietP10(short), p10(short); got != want {
		t.Errorf("a run too short to window: got %v, want the plain decile %v", got, want)
	}
	// 8 windows of 10 samples; the sixth is the quiet one.
	var v []float64
	for w := 0; w < quietWindows; w++ {
		base := 100.0
		if w == 5 {
			base = 50
		}
		for i := 0; i < quietMin; i++ {
			v = append(v, base+float64(i))
		}
	}
	if got, want := quietP10(v), 50.9; math.Abs(got-want) > 1e-9 {
		t.Errorf("quietP10 = %v, want the quiet window's decile %v", got, want)
	}
	if plain := p10(v); plain <= quietP10(v) {
		t.Errorf("the plain decile %v should sit above the quiet window's", plain)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{5, "p50"}, {19, "p50"}, {20, "p50"}, {39, "p50"}, {40, "p75"}, {100, "p90"}, {199, "p90"}, {200, "p95"}, {999, "p95"}, {1000, "p99"}} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i)
		}
		label, v := tail(s)
		if label != c.want {
			t.Errorf("tail of %d samples is %s, want %s", c.n, label, c.want)
		}
		var q float64
		for _, cand := range tailCandidates {
			if cand.label == label {
				q = cand.q
			}
		}
		if want := quantile(s, q); v != want {
			t.Errorf("tail of %d samples = %v, want the %s value %v", c.n, v, label, want)
		}
	}
}

func TestSpread(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{{nil, 0}, {[]float64{7}, 0}, {[]float64{0, 0}, 0}, {[]float64{100, 110, 105}, 0.10}, {[]float64{2, 2, 2}, 0}} {
		if got := spread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := spread([]float64{0, 1}); !math.IsInf(got, 1) {
		t.Errorf("spread from zero = %v, want +Inf", got)
	}
}

func TestCounterDeltasAreExact(t *testing.T) {
	start := counters{mallocs: 1000, bytes: 1 << 20, simCycles: 5e6}
	end := counters{mallocs: 1000 + 3*4096, bytes: 1<<20 + 128*4096, simCycles: 5e6 + 162.5*4096}
	allocs, bytes, cycles := end.perOp(start, 4096)
	if allocs != 3 || bytes != 128 || cycles != 162.5 {
		t.Errorf("perOp = %v, %v, %v; want 3, 128, 162.5", allocs, bytes, cycles)
	}
}

func TestRNGDependsOnSeedAndStreamOnly(t *testing.T) {
	a, b := newRNG(42, "line"), newRNG(42, "line")
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed and stream diverged")
		}
	}
	if newRNG(42, "line").next() == newRNG(43, "line").next() {
		t.Error("different seeds gave the same first draw")
	}
	if newRNG(42, "line").next() == newRNG(42, "pool").next() {
		t.Error("different streams gave the same first draw")
	}
	p, q := make([]byte, 37), make([]byte, 37)
	newRNG(9, "fill").fill(p)
	newRNG(9, "fill").fill(q)
	if string(p) != string(q) {
		t.Error("fill is not deterministic")
	}
	zero := 0
	for _, x := range p {
		if x == 0 {
			zero++
		}
	}
	if zero > 5 {
		t.Errorf("fill left %d of %d bytes zero", zero, len(p))
	}
	r := newRNG(1, "intn")
	for i := 0; i < 1000; i++ {
		if v := r.intn(7); v < 0 || v >= 7 {
			t.Fatalf("intn(7) = %d", v)
		}
	}
}

// Same seed ⇒ same op sequence ⇒ same hash; the hash sees order.
func TestOpSequenceHash(t *testing.T) {
	run := func(seed uint64, write bool, batches int) seqHash {
		s := newLineSeq(seed, write)
		for i := 0; i < batches; i++ {
			s.next(32768)
		}
		return s.hash()
	}
	if run(5, false, 3) != run(5, false, 3) {
		t.Error("same seed gave different hashes")
	}
	if run(5, false, 3) == run(6, false, 3) {
		t.Error("different seeds gave the same hash")
	}
	if run(5, false, 3) == run(5, false, 4) {
		t.Error("a longer sequence gave the same hash")
	}
	if run(5, false, 3) == run(5, true, 3) {
		t.Error("read and write sequences gave the same hash")
	}
	h1, h2 := newSeqHash(), newSeqHash()
	h1.add(1)
	h1.add(2)
	h2.add(2)
	h2.add(1)
	if h1 == h2 {
		t.Error("hash ignores order")
	}
}

// Self times are differences of separately timed rungs: they re-add to the
// top rung exactly, and a rung faster than its callees shows as negative.
func TestSelfTimes(t *testing.T) {
	ladder := n("api.op", 1,
		n("core.read_ns", 1,
			n("engine.readinto_ns", 1, n("gf.mul_ns", 8))),
		n("monitor.pmoof_ns", 1))
	incl := map[string]float64{"api.op": 600, "core.read_ns": 500, "engine.readinto_ns": 400, "gf.mul_ns": 5, "monitor.pmoof_ns": 10}
	by, minSelf := selfTimes(ladder, func(name string) float64 { return incl[name] })
	want := map[string]float64{"api": 90, "core": 100, "engine": 360, "gf": 40, "monitor": 10}
	var sum float64
	for l, w := range want {
		if by[l] != w {
			t.Errorf("self[%s] = %v, want %v", l, by[l], w)
		}
		sum += by[l]
	}
	if sum != incl["api.op"] {
		t.Errorf("self times add to %v, want the top rung's %v", sum, incl["api.op"])
	}
	if minSelf != 0 {
		t.Errorf("minSelf = %v on a consistent ladder, want 0", minSelf)
	}
	incl["engine.readinto_ns"] = 30 // faster than the 8 multiplications it makes
	if _, minSelf = selfTimes(ladder, func(name string) float64 { return incl[name] }); minSelf != -10 {
		t.Errorf("minSelf = %v, want -10", minSelf)
	}
	if p := parents(ladder); p["gf.mul_ns"] != "engine.readinto_ns" || p["core.read_ns"] != "api.op" {
		t.Errorf("parents = %v", p)
	}
}

// Every ladder is made of declared rungs under the top rung.
func TestLaddersUseDeclaredRungs(t *testing.T) {
	declared := map[string]bool{topRung: true}
	for _, r := range rungs {
		declared[r] = true
	}
	self := map[string]bool{}
	for _, l := range selfLayers {
		self[l] = true
	}
	for _, w := range workloads {
		top, ok := ladders[w.name]
		if !ok || top.name != topRung {
			t.Errorf("workload %s has no ladder under %s", w.name, topRung)
			continue
		}
		var walk func(r rung)
		walk = func(r rung) {
			if !declared[r.name] {
				t.Errorf("%s: ladder rung %s is not a declared per-layer metric", w.name, r.name)
			}
			if !self[layerOf(r.name)] {
				t.Errorf("%s: layer of %s has no self_ns metric", w.name, r.name)
			}
			for _, k := range r.kids {
				walk(k)
			}
		}
		walk(top)
	}
}
