package engine

import (
	"testing"

	"mmt/internal/trace"
)

// TestAccessZeroAllocTracingDisabled enforces the trace layer's core
// contract on the engine hot path: with tracing disabled (the default
// nil probe) a warmed Access costs zero heap allocations, so the
// instrumentation is free when off.
func TestAccessZeroAllocTracingDisabled(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 1)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	// Warm the node cache and root table so steady-state accesses stay
	// on the hit path.
	for i := 0; i < 64; i++ {
		c.Access(0, i%c.lay.Lines, i%2 == 0)
	}
	line := 0
	allocs := testing.AllocsPerRun(200, func() {
		c.Access(0, line, true)
		line = (line + 1) % c.lay.Lines
	})
	if allocs != 0 {
		t.Fatalf("Access allocates %.1f objects/op with tracing disabled, want 0", allocs)
	}
}

// benchAccess measures the steady-state Access path; with a nil probe
// (tracing disabled) it must report 0 allocs/op.
func benchAccess(b *testing.B, sink *trace.Sink) {
	c := testSetup(b)
	fill(c, 0, 1)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		b.Fatal(err)
	}
	c.SetTrace(sink.Probe("bench"))
	for i := 0; i < 64; i++ {
		c.Access(0, i%c.lay.Lines, i%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0, i%c.lay.Lines, i%2 == 0)
	}
}

func BenchmarkAccessTracingDisabled(b *testing.B) { benchAccess(b, nil) }

func BenchmarkAccessTracingEnabled(b *testing.B) { benchAccess(b, trace.NewSink()) }

// TestAccessTracedMatchesUntraced: attaching a probe must not change
// the cost model — only record it. The traced phase totals must account
// for exactly the charged cycles.
func TestAccessTracedMatchesUntraced(t *testing.T) {
	run := func(sink *trace.Sink) *Controller {
		c := testSetup(t)
		fill(c, 0, 1)
		if err := c.Enable(0, testKey, 0x11, 0); err != nil {
			t.Fatal(err)
		}
		c.ResetStats()
		c.SetTrace(sink.Probe("ctl"))
		for i := 0; i < 500; i++ {
			c.Access(0, (i*7)%c.lay.Lines, i%3 == 0)
		}
		return c
	}
	plain := run(nil)
	sink := trace.NewSink()
	traced := run(sink)
	if plain.Stats().Cycles != traced.Stats().Cycles {
		t.Fatalf("tracing changed the cost model: %v vs %v cycles",
			plain.Stats().Cycles, traced.Stats().Cycles)
	}
	m := sink.Snapshot()
	if got := m.TotalCycles(); got != traced.Stats().Cycles {
		t.Fatalf("phase totals %v cycles != charged %v cycles", got, traced.Stats().Cycles)
	}
	// The per-op latency histograms mirror the same charge points: every
	// charged access recorded a sample, and the sampled cycles sum to the
	// charged total (reads + writes cover the whole access path; the
	// verify histogram re-counts the verification share of those samples).
	reads, writes := m.Op(trace.OpLocalRead), m.Op(trace.OpLocalWrite)
	if reads.Count == 0 || writes.Count == 0 {
		t.Fatalf("histograms empty: reads %d writes %d", reads.Count, writes.Count)
	}
	if got := reads.Sum + writes.Sum; got != traced.Stats().Cycles {
		t.Fatalf("histogram sums %v cycles != charged %v cycles", got, traced.Stats().Cycles)
	}
	if v := m.Op(trace.OpVerify); v.Count == 0 || v.Sum > traced.Stats().Cycles {
		t.Fatalf("verify histogram implausible: %+v", v)
	}
}
