package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"mmt/internal/sim"
)

// TestBucketLayout: the fixed power-of-two layout — sub-cycle samples in
// bucket 0, sample c in bucket bits.Len64(c), clamped at the top.
func TestBucketLayout(t *testing.T) {
	cases := []struct {
		c    sim.Cycles
		want int
	}{
		{0, 0}, {0.25, 0}, {0.999, 0},
		{1, 1}, {1.5, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{1 << 20, 21},
		{math.MaxFloat64, HistBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.c); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.c, got, tc.want)
		}
	}
	if BucketBound(0) != 1 || BucketBound(1) != 2 || BucketBound(10) != 1024 {
		t.Fatalf("BucketBound broken: %v %v %v", BucketBound(0), BucketBound(1), BucketBound(10))
	}
	// Every sample is strictly below its bucket's upper bound (except the
	// clamped top bucket, which absorbs the tail).
	for i := 0; i < HistBuckets-1; i++ {
		b := BucketBound(i)
		if idx := bucketIndex(b - 0.5); idx != i {
			t.Errorf("sample just under bound %v landed in bucket %d, want %d", b, idx, i)
		}
	}
}

// TestHistogramRecordCount: one Record of n samples equals n Records of
// one, field for field, including Min/Max on a histogram that already
// holds samples.
func TestHistogramRecordCount(t *testing.T) {
	var once, each Histogram
	for _, s := range []struct {
		c sim.Cycles
		n uint64
	}{{136.5, 7}, {40, 3}, {492.25, 1}, {8, 5}} {
		once.Record(s.c, s.n)
		for i := uint64(0); i < s.n; i++ {
			each.Record(s.c, 1)
		}
	}
	if once != each {
		t.Fatalf("Record(c, n) = %+v, n × Record(c, 1) = %+v", once, each)
	}
}

// TestHistogramStats: Record tracks exact count/min/max and the quantile
// walk returns bucket bounds, refined to the exact max in the last
// occupied bucket.
func TestHistogramStats(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zero-valued")
	}
	for _, c := range []sim.Cycles{10, 20, 30, 40, 1000} {
		h.Record(c, 1)
	}
	if h.Count != 5 || h.Min != 10 || h.Max != 1000 || h.Sum != 1100 {
		t.Fatalf("stats = %+v", h)
	}
	if got := h.Mean(); got != 220 {
		t.Fatalf("Mean = %v, want 220", got)
	}
	// p50 rank = ceil(0.5*5) = 3 → third sample (30) lives in [16,32).
	if got := h.Quantile(0.50); got != 32 {
		t.Fatalf("p50 = %v, want 32", got)
	}
	// p99 rank = 5 → last occupied bucket → exact max.
	if got := h.Quantile(0.99); got != 1000 {
		t.Fatalf("p99 = %v, want exact max 1000", got)
	}
	if got := h.Quantile(1.0); got != 1000 {
		t.Fatalf("p100 = %v, want 1000", got)
	}
	// Quantiles never decrease with q.
	prev := sim.Cycles(0)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

// TestHistogramMergeMatchesSerial: splitting a sample stream across
// private histograms and merging them in input order reproduces the
// serial histogram bit for bit — the property the parallel runner's
// byte-identical exports rest on.
func TestHistogramMergeMatchesSerial(t *testing.T) {
	samples := make([]sim.Cycles, 0, 256)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 256; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		samples = append(samples, sim.Cycles(x%100000)+sim.Cycles(i)/3)
	}
	var serial Histogram
	for _, c := range samples {
		serial.Record(c, 1)
	}
	for _, workers := range []int{2, 4, 8} {
		parts := make([]Histogram, workers)
		for i, c := range samples {
			// Contiguous chunks, as the parallel runner shards work units.
			parts[i*workers/len(samples)].Record(c, 1)
		}
		var merged Histogram
		for i := range parts {
			merged.MergeFrom(&parts[i])
		}
		if merged != serial {
			t.Fatalf("workers=%d: merged != serial\nmerged: %+v\nserial: %+v", workers, merged, serial)
		}
		if math.Float64bits(float64(merged.Sum)) != math.Float64bits(float64(serial.Sum)) {
			t.Fatalf("workers=%d: Sum differs in bits", workers)
		}
	}
}

// TestRecordOpThroughSink: probes record into per-process histograms;
// Metrics.Op merges across processes; snapshots do not alias live state.
func TestRecordOpThroughSink(t *testing.T) {
	s := NewSink()
	a := s.Probe("alice")
	b := s.Probe("bob")
	a.RecordOp(OpLocalRead, 100, 1)
	a.RecordOp(OpLocalRead, 200, 1)
	b.RecordOp(OpLocalRead, 50, 1)
	b.RecordOp(OpVerify, 40, 1)

	m := s.Snapshot()
	h := m.Op(OpLocalRead)
	if h.Count != 3 || h.Min != 50 || h.Max != 200 {
		t.Fatalf("merged local-read = %+v", h)
	}
	if m.Op(OpVerify).Count != 1 || m.Op(OpReencrypt).Count != 0 {
		t.Fatalf("per-op separation broken")
	}
	// Snapshot is a copy.
	m.Procs[0].Ops[OpLocalRead].Count = 999
	if s.Snapshot().Procs[0].Ops[OpLocalRead].Count != 2 {
		t.Fatalf("snapshot aliased sink histograms")
	}
	// Reset zeroes histograms but keeps probes valid.
	s.Reset()
	if s.Snapshot().Op(OpLocalRead).Count != 0 {
		t.Fatalf("reset left histogram samples")
	}
	a.RecordOp(OpLocalRead, 7, 1)
	if s.Snapshot().Op(OpLocalRead).Count != 1 {
		t.Fatalf("post-reset probe dead")
	}
}

// TestSinkMergeOpsAndLedger: Sink.Merge folds histograms per process and
// re-records ledger events with the destination's sequence numbers.
func TestSinkMergeOpsAndLedger(t *testing.T) {
	root := NewSink()
	root.Probe("alice").RecordOp(OpLocalWrite, 10, 1)
	root.Probe("alice").Event(EvMigrationSend, 1e-6, 0x10, "d0")

	w := NewSink()
	w.Probe("alice").RecordOp(OpLocalWrite, 30, 1)
	w.Probe("carol").RecordOp(OpRemoteRead, 5, 1)
	w.Probe("carol").Event(EvAuthFail, 2e-6, 0x20, "d1")

	root.Merge(w)
	m := root.Snapshot()
	if h := m.Op(OpLocalWrite); h.Count != 2 || h.Max != 30 {
		t.Fatalf("merged local-write = %+v", h)
	}
	if m.Op(OpRemoteRead).Count != 1 {
		t.Fatalf("new proc histogram lost in merge")
	}
	evs := root.SecEvents()
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("merged ledger seqs = %+v", evs)
	}
	if evs[1].Proc != "carol" || evs[1].Kind != EvAuthFail {
		t.Fatalf("merged event = %+v", evs[1])
	}
}

// TestHistJSONShape: the export is valid JSON with the schema tag, name-
// sorted procs, enum-ordered ops, sparse buckets — and byte-identical
// across identically-assembled sinks regardless of merge topology.
func TestHistJSONShape(t *testing.T) {
	build := func(workers int) *Sink {
		root := NewSink()
		if workers <= 1 {
			p := root.Probe("bob")
			q := root.Probe("alice")
			for i := 0; i < 10; i++ {
				p.RecordOp(OpLocalRead, sim.Cycles(100+i*37), 1)
				q.RecordOp(OpVerify, sim.Cycles(50+i*11), 1)
			}
			return root
		}
		parts := make([]*Sink, workers)
		for wi := range parts {
			parts[wi] = NewSink()
		}
		for i := 0; i < 10; i++ {
			w := parts[i*workers/10]
			w.Probe("bob").RecordOp(OpLocalRead, sim.Cycles(100+i*37), 1)
			w.Probe("alice").RecordOp(OpVerify, sim.Cycles(50+i*11), 1)
		}
		for _, w := range parts {
			root.Merge(w)
		}
		return root
	}
	var ref bytes.Buffer
	if err := build(1).WriteHistJSON(&ref); err != nil {
		t.Fatalf("export: %v", err)
	}
	m, err := ParseHist(ref.Bytes())
	if err != nil {
		t.Fatalf("export does not parse: %v\n%s", err, ref.String())
	}
	if len(m.Procs) != 2 || m.Procs[0].Proc != "alice" || m.Procs[1].Proc != "bob" {
		t.Fatalf("procs not name-sorted: %+v", m.Procs)
	}
	if want := build(1).Snapshot().histDoc(); !reflect.DeepEqual(m, want) {
		t.Fatalf("parsed histograms differ from the sink's:\n got %+v\nwant %+v", m, want)
	}
	for _, workers := range []int{2, 4, 8} {
		var out bytes.Buffer
		if err := build(workers).WriteHistJSON(&out); err != nil {
			t.Fatalf("workers=%d export: %v", workers, err)
		}
		if !bytes.Equal(ref.Bytes(), out.Bytes()) {
			t.Fatalf("workers=%d hist JSON differs from serial:\n%s\nvs\n%s", workers, ref.String(), out.String())
		}
	}
	// Nil sink still writes a valid, empty document.
	var empty bytes.Buffer
	if err := (*Sink)(nil).WriteHistJSON(&empty); err != nil {
		t.Fatalf("nil export: %v", err)
	}
	if m, err := ParseHist(empty.Bytes()); err != nil || len(m.Procs) != 0 {
		t.Fatalf("nil export invalid: %v, %+v", err, m)
	}
}

// TestZeroAllocDisabledOpsAndEvents: the new histogram and ledger entry
// points preserve the nil-probe zero-allocation contract, and enabled
// RecordOp stays allocation-free too (it only touches fixed arrays).
func TestZeroAllocDisabledOpsAndEvents(t *testing.T) {
	var p *Probe
	if a := testing.AllocsPerRun(1000, func() {
		p.RecordOp(OpLocalRead, 123, 1)
		p.Event(EvIntegrityFail, 1e-6, 0x40, "tamper")
	}); a != 0 {
		t.Fatalf("disabled probe allocates %v per op", a)
	}
	s := NewSink()
	q := s.Probe("alice")
	q.RecordOp(OpLocalRead, 1, 1) // warm
	if a := testing.AllocsPerRun(1000, func() {
		q.RecordOp(OpLocalRead, 123, 1)
		q.RecordOp(OpLocalRead, 0.5, 1)  // below one cycle: bucket 0
		q.RecordOp(OpLocalRead, 1e30, 1) // past the last bucket's bound
		var h Histogram
		h.Record(123, 2) // a first sample sets Min and Max
	}); a != 0 {
		t.Fatalf("enabled RecordOp allocates %v per op", a)
	}
}

func BenchmarkRecordOpDisabled(b *testing.B) {
	var p *Probe
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.RecordOp(OpLocalRead, sim.Cycles(i), 1)
	}
}

func BenchmarkRecordOpEnabled(b *testing.B) {
	p := NewSink().Probe("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.RecordOp(OpLocalRead, sim.Cycles(i), 1)
	}
}
