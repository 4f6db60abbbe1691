package mmt

import (
	"fmt"

	"mmt/internal/engine"
)

// Metrics returns a copied snapshot of the cluster's trace accumulators:
// one entry per machine, sorted by name, with per-phase cycle totals and
// monotonic counters. Without WithTracing the snapshot is empty. The
// snapshot does not alias any live state — arrays are copied by value —
// so it stays stable while the cluster keeps running.
func (c *Cluster) Metrics() Metrics {
	return c.set.trace.Snapshot()
}

// TraceSink reports the sink installed with WithTracing (nil when
// tracing is disabled). Use it for the exporters, each writing one tagged
// struct per artefact with encoding/json: sink.WriteChromeTrace the span
// timeline for chrome://tracing / Perfetto, sink.WriteHistJSON the latency
// histograms, sink.WriteEventsJSONL the security-event ledger;
// sink.Summary is the compact text form.
func (c *Cluster) TraceSink() *TraceSink { return c.set.trace }

// Traces returns the cluster's causal traces: one span tree per
// migration (Link.Delegate) and per connect handshake, each with the
// end-to-end cycle total across sender, interconnect and receiver and
// the computed critical path. Trace IDs derive from per-machine
// monotonic counters, so identical runs yield identical traces. Without
// WithTracing the result is nil. These traces, times in microseconds,
// are the traces of the mmt-causal/v1 document that
// TraceSink().WriteCausalJSON writes.
func (c *Cluster) Traces() []CausalTrace {
	return c.set.trace.CausalTraces()
}

// Events returns a copy of the cluster's bounded security-event ledger,
// oldest first: every integrity/authenticity/freshness verdict, every
// migration and delegation outcome, and every capability destroy, each
// stamped with the recording machine's simulated clock (in
// microseconds). Without WithTracing the ledger is empty. The copy never
// aliases live state. Each entry is one line of the mmt-events/v1
// document that TraceSink().WriteEventsJSONL writes.
func (c *Cluster) Events() []SecurityEvent {
	return c.set.trace.SecEvents()
}

// EventsDropped reports how many ledger entries the bounded ring evicted
// (0 without WithTracing). A nonzero value means Events returns only the
// newest entries; sequence numbers show the gap, and each event's Window
// field localizes it on the sampling timeline when WithSampling is on.
func (c *Cluster) EventsDropped() uint64 {
	return c.set.trace.EventsDropped()
}

// Series returns a copied snapshot of the cluster's windowed time
// series: per machine, the retained window deltas (plus the evicted
// aggregate and a synthesized tail), whose sum equals the accumulator
// totals exactly. The bool is false without WithSampling. Export this
// view's own tagged struct as an mmt-series/v1 artifact with
// TraceSink().WriteSeriesJSON, or scrape /debug/mmt/metrics.
func (c *Cluster) Series() (SampleSeries, bool) {
	return c.set.trace.SeriesSnapshot()
}

// BufferStats is a read-only snapshot of one buffer's protection state.
type BufferStats struct {
	// Machine is the host currently holding the buffer.
	Machine string
	// Region is the protection region index on that machine.
	Region int
	// Size is the buffer capacity in bytes (one MMT granule).
	Size int
	// Mode is the controller's enforcement mode ("read-write",
	// "read-only", "disabled").
	Mode string
	// State is the MMT root state ("valid", "sending", ...).
	State string
	// GUAddr is the MMT's global-unique address.
	GUAddr uint64
	// RootCounter is the trusted root counter (0 when disabled). It only
	// ever increases; delegation freshness is built on it.
	RootCounter uint64
	// ReadOnly reports whether the buffer arrived as an ownership copy.
	ReadOnly bool
}

// String renders the snapshot on one line.
func (s BufferStats) String() string {
	return fmt.Sprintf("buffer{%s region=%d size=%d mode=%s state=%s guaddr=%#x rootctr=%d readonly=%v}",
		s.Machine, s.Region, s.Size, s.Mode, s.State, s.GUAddr, s.RootCounter, s.ReadOnly)
}

// Stats returns a copied snapshot of the buffer's protection state. The
// snapshot is detached: it does not change when the buffer does.
func (b *Buffer) Stats() (BufferStats, error) {
	pmo, err := b.mmtOf()
	if err != nil {
		return BufferStats{}, err
	}
	m := pmo.MMT()
	if m == nil {
		return BufferStats{}, fmt.Errorf("mmt: buffer has no live MMT")
	}
	ctl := b.machine.mon.Node().Controller()
	st := BufferStats{
		Machine:  b.machine.name,
		Region:   pmo.Region,
		Size:     b.Size(),
		Mode:     ctl.Mode(pmo.Region).String(),
		State:    m.State().String(),
		GUAddr:   m.GUAddr(),
		ReadOnly: m.ReadOnly(),
	}
	if ctl.Mode(pmo.Region) != engine.ModeDisabled { // counter needs a live tree
		st.RootCounter = ctl.RootCounter(pmo.Region)
	}
	return st, nil
}
