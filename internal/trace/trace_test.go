package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"mmt/internal/sim"
)

// TestNilSafety: every operation on the disabled (nil) forms is a no-op
// that neither panics nor records.
func TestNilSafety(t *testing.T) {
	var s *Sink
	p := s.Probe("alice")
	if p != nil {
		t.Fatalf("nil sink returned non-nil probe")
	}
	if p.Enabled() {
		t.Fatalf("nil probe reports enabled")
	}
	p.Count(CtrMACVerifies, 3)
	clk := sim.NewClock(0)
	p.Charge(clk, PhaseMAC, 10)
	if clk.NowCycles() != 10 {
		t.Fatalf("nil probe's Charge left the clock at %v cycles, want 10", clk.NowCycles())
	}
	sp := p.Begin(PhaseSend, 1)
	sp.End(2)
	p.Span(PhaseRecv, 1, 2)
	s.Reset()
	if got := s.Events(); got != nil {
		t.Fatalf("nil sink events = %v", got)
	}
	if m := s.Snapshot(); len(m.Procs) != 0 {
		t.Fatalf("nil sink snapshot has procs")
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil sink export: %v", err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("nil sink export = %q", buf.String())
	}
	if !strings.Contains(s.Summary(), "disabled") {
		t.Fatalf("nil sink summary = %q", s.Summary())
	}
}

// TestZeroAllocDisabled: the disabled probe's hot-path methods allocate
// nothing — this is the contract that lets the engine instrument its
// per-access path unconditionally.
func TestZeroAllocDisabled(t *testing.T) {
	var p *Probe
	clk := sim.NewClock(0)
	allocs := testing.AllocsPerRun(1000, func() {
		p.Count(CtrNodeCacheHits, 1)
		p.Charge(clk, PhaseTreeWalk, 8)
		p.Begin(PhaseData, 0).End(0)
	})
	if allocs != 0 {
		t.Fatalf("disabled probe allocates %v per op", allocs)
	}
}

// TestCountersAndCycles: accumulators sum per process and across the
// snapshot, and snapshots are copies.
func TestCountersAndCycles(t *testing.T) {
	s := NewSink()
	a := s.Probe("alice")
	b := s.Probe("bob")
	a.Count(CtrMACVerifies, 2)
	a.Count(CtrMACVerifies, 3)
	b.Count(CtrMACVerifies, 5)
	ca, cb := sim.NewClock(0), sim.NewClock(0)
	a.Charge(ca, PhaseMAC, 40)
	b.Charge(cb, PhaseMAC, 8)
	b.Charge(cb, PhaseData, 110)
	if ca.NowCycles() != 40 || cb.NowCycles() != 118 {
		t.Fatalf("clocks at %v and %v cycles, want each process's phase sum 40 and 118", ca.NowCycles(), cb.NowCycles())
	}

	m := s.Snapshot()
	if got := m.Counter(CtrMACVerifies); got != 10 {
		t.Fatalf("Counter total = %d, want 10", got)
	}
	if got := m.PhaseCycles(PhaseMAC); got != 48 {
		t.Fatalf("PhaseCycles(mac) = %v, want 48", got)
	}
	if got := m.TotalCycles(); got != 158 {
		t.Fatalf("TotalCycles = %v, want 158", got)
	}
	// Sorted by name.
	if len(m.Procs) != 2 || m.Procs[0].Proc != "alice" || m.Procs[1].Proc != "bob" {
		t.Fatalf("procs = %+v", m.Procs)
	}
	// Snapshot is a copy: mutating it does not affect the sink.
	m.Procs[0].Counters[CtrMACVerifies] = 999
	if got := s.Snapshot().Procs[0].Counters[CtrMACVerifies]; got != 5 {
		t.Fatalf("snapshot aliased sink state: %d", got)
	}

	// Probe identity: asking again for the same name hits the same record.
	s.Probe("alice").Count(CtrMACVerifies, 1)
	if got := s.Snapshot().Procs[0].Counters[CtrMACVerifies]; got != 6 {
		t.Fatalf("re-probed counter = %d, want 6", got)
	}

	s.Reset()
	if got := s.Snapshot().Counter(CtrMACVerifies); got != 0 {
		t.Fatalf("reset left counter = %d", got)
	}
	// Probes handed out before Reset still work.
	a.Count(CtrMACVerifies, 7)
	if got := s.Snapshot().Counter(CtrMACVerifies); got != 7 {
		t.Fatalf("post-reset probe counter = %d", got)
	}
}

// TestSpans: Begin/End and Span record events with clamped intervals.
func TestSpans(t *testing.T) {
	s := NewSink()
	p := s.Probe("alice")
	sp := p.Begin(PhaseSend, sim.Time(1e-6))
	sp.End(sim.Time(3e-6))
	p.Span(PhaseRecv, sim.Time(5e-6), sim.Time(4e-6)) // inverted: clamps

	evs := s.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Phase != PhaseSend || evs[0].Begin != sim.Time(1e-6) || evs[0].End != sim.Time(3e-6) {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].End != evs[1].Begin {
		t.Fatalf("inverted span not clamped: %+v", evs[1])
	}
	// Events() returns a copy.
	evs[0].Phase = PhaseApp
	if s.Events()[0].Phase != PhaseSend {
		t.Fatalf("Events aliased sink state")
	}
}

// TestChromeTraceShape: the export is a JSON array with process
// metadata, X spans in microseconds, and C counter events; identical
// sinks export byte-identically.
func TestChromeTraceShape(t *testing.T) {
	build := func() *Sink {
		s := NewSink()
		b := s.Probe("bob")
		a := s.Probe("alice") // registered second; export must sort
		a.Span(PhaseSend, sim.Time(1e-6), sim.Time(3.5e-6))
		b.Count(CtrWireBytesClosure, 4096)
		b.Span(PhaseRecv, sim.Time(2e-6), sim.Time(4e-6))
		return s
	}
	var out bytes.Buffer
	if err := build().WriteChromeTrace(&out); err != nil {
		t.Fatalf("export: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		`"ph":"M"`, `"name":"alice"`, `"name":"bob"`,
		`"ph":"X"`, `"name":"send"`, `"ts":1.000,"dur":2.500`,
		`"ph":"C"`, `"wire-bytes-closure":4096`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("export missing %q:\n%s", want, got)
		}
	}
	// The reader gives back records that write the same bytes.
	parsed, err := ParseChromeTrace(out.Bytes())
	var re bytes.Buffer
	if err != nil || newEncoder(&re).Encode(parsed) != nil || !bytes.Equal(re.Bytes(), out.Bytes()) {
		t.Fatalf("export does not parse back (%v):\n got %s\nwant %s", err, re.String(), got)
	}
	// alice sorts first → pid 1; her span must carry pid 1.
	if len(parsed) != 5 || parsed[0].(*ChromeProc).Args.Name != "alice" || parsed[2].(*ChromeSpan).Name != "send" || parsed[2].(*ChromeSpan).Pid != 1 {
		t.Fatalf("records not in the documented order, or alice's span not pid 1:\n%s", got)
	}
	var again bytes.Buffer
	if err := build().WriteChromeTrace(&again); err != nil {
		t.Fatalf("re-export: %v", err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatalf("identical sinks exported differently")
	}
}

// TestSummary lists only nonzero phases/counters per process.
func TestSummary(t *testing.T) {
	s := NewSink()
	p := s.Probe("alice")
	p.Charge(sim.NewClock(0), PhaseMAC, 48)
	p.Count(CtrMACVerifies, 6)
	sum := s.Summary()
	for _, want := range []string{"== alice ==", "mac", "48", "mac-verifies", "6", "TOTAL"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
	if strings.Contains(sum, "encrypt") {
		t.Fatalf("summary lists zero-valued phase:\n%s", sum)
	}
	if NewSink().Summary() != "trace: no activity recorded\n" {
		t.Fatalf("empty summary = %q", NewSink().Summary())
	}
}

// TestNames: every enum value has a distinct human-readable name (the
// exporter and the sidecar schema rely on this).
func TestNames(t *testing.T) {
	seen := map[string]bool{}
	for ph := Phase(0); ph < NumPhases; ph++ {
		n := ph.String()
		if n == "" || strings.HasPrefix(n, "Phase(") || seen[n] {
			t.Fatalf("bad phase name %q for %d", n, ph)
		}
		seen[n] = true
	}
	for c := Counter(0); c < NumCounters; c++ {
		n := c.String()
		if n == "" || strings.HasPrefix(n, "Counter(") || seen[n] {
			t.Fatalf("bad counter name %q for %d", n, c)
		}
		seen[n] = true
	}
}

// TestCausalTracesOrdered: causal trees come out by (root process,
// sequence), not in the order their first spans were recorded.
func TestCausalTracesOrdered(t *testing.T) {
	sink := NewSink()
	b, a := sink.Probe("b"), sink.Probe("a")
	for _, p := range []*Probe{b, a, b, a} {
		p.BeginSpan(p.NewTrace(), PhaseMAC, 0).End(1e-6)
	}
	var got []TraceID
	for _, ct := range sink.CausalTraces() {
		got = append(got, ct.ID)
	}
	want := []TraceID{{Proc: "a", Seq: 1}, {Proc: "a", Seq: 2}, {Proc: "b", Seq: 1}, {Proc: "b", Seq: 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("causal traces %v, want %v", got, want)
	}
}
