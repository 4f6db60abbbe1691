package trace

import (
	"io"
	"strconv"
)

// This file renders the windowed sampler two ways: the mmt-series/v1
// JSON artifact (read back by ParseSeries, rendered by mmt-stat) and
// an OpenMetrics-style text exposition served at /debug/mmt/metrics.
// Both follow the package determinism contract — no map iteration, no
// wall clock, fixed float formatting — so identical runs export byte-
// identical documents at any worker count.

// WriteSeriesJSON serializes the sampler state as an mmt-series/v1
// document:
//
//	{"schema": "mmt-series/v1",
//	 "window_cycles": W, "max_samples": M,
//	 "procs": [
//	   {"proc": name,
//	    "evicted_windows": n, "evicted_through": w,
//	    "evicted": {sample},          // aggregate, when n > 0
//	    "samples": [{sample}, ...],   // per-window deltas, oldest first
//	    "totals": {sample}},          // cumulative accumulator totals
//	   ...]}
//
// where each sample object is {"window": w, "counters": {...},
// "cycles": {...}, "ops": {name: {"count": n, "sum_cycles": c}}} with
// only non-zero entries listed, keys in enum order. The invariant
// SeriesView.Check verifies: evicted + samples sum to totals exactly.
// An error is returned when sampling is not enabled.
func (s *Sink) WriteSeriesJSON(w io.Writer) error {
	v, ok := s.SeriesSnapshot()
	if !ok {
		return errSeriesDisabled
	}
	bw := &errWriter{w: w}
	bw.str("{\n  \"schema\": " + jsonString(SeriesSchema) + ",\n")
	bw.str("  \"window_cycles\": " + strconv.FormatUint(v.WindowCycles, 10) + ",\n")
	bw.str("  \"max_samples\": " + strconv.Itoa(v.MaxSamples) + ",\n")
	bw.str("  \"procs\": [")
	for i := range v.Procs {
		p := &v.Procs[i]
		if i > 0 {
			bw.str(",")
		}
		bw.str("\n    {\"proc\": " + jsonString(p.Proc) + ",\n")
		bw.str("     \"evicted_windows\": " + strconv.FormatUint(p.EvictedWindows, 10) + ",\n")
		bw.str("     \"evicted_through\": " + strconv.FormatUint(p.EvictedThrough, 10) + ",\n")
		if p.EvictedWindows > 0 {
			bw.str("     \"evicted\": ")
			writeSeriesSample(bw, &p.Evicted)
			bw.str(",\n")
		}
		bw.str("     \"samples\": [")
		for j := range p.Samples {
			if j > 0 {
				bw.str(",")
			}
			bw.str("\n       ")
			writeSeriesSample(bw, &p.Samples[j])
		}
		if len(p.Samples) > 0 {
			bw.str("\n     ")
		}
		bw.str("],\n")
		bw.str("     \"totals\": ")
		writeSeriesSample(bw, &p.Totals)
		bw.str("}")
	}
	if len(v.Procs) > 0 {
		bw.str("\n  ")
	}
	bw.str("]\n}\n")
	return bw.err
}

type seriesDisabledError struct{}

func (seriesDisabledError) Error() string { return "trace: series sampling not enabled" }

var errSeriesDisabled = seriesDisabledError{}

// writeSeriesSample renders one sample object with only non-zero
// entries, keys in enum order.
func writeSeriesSample(bw *errWriter, d *SeriesSample) {
	bw.str("{\"window\": " + strconv.FormatUint(d.Window, 10) + ", \"counters\": {")
	first := true
	for c := Counter(0); c < NumCounters; c++ {
		if d.Counters[c] == 0 {
			continue
		}
		if !first {
			bw.str(", ")
		}
		first = false
		bw.str(jsonString(c.String()) + ": " + strconv.FormatUint(d.Counters[c], 10))
	}
	bw.str("}, \"cycles\": {")
	first = true
	for ph := Phase(0); ph < NumPhases; ph++ {
		if d.Cycles[ph] == 0 {
			continue
		}
		if !first {
			bw.str(", ")
		}
		first = false
		bw.str(jsonString(ph.String()) + ": " + cyc(d.Cycles[ph]))
	}
	bw.str("}, \"ops\": {")
	first = true
	for op := Op(0); int(op) < NumOps; op++ {
		if d.OpCount[op] == 0 && d.OpSum[op] == 0 {
			continue
		}
		if !first {
			bw.str(", ")
		}
		first = false
		bw.str(jsonString(op.String()) + ": {\"count\": " + strconv.FormatUint(d.OpCount[op], 10) +
			", \"sum_cycles\": " + cyc(d.OpSum[op]) + "}")
	}
	bw.str("}}")
}

// ParseSeries is WriteSeriesJSON's reader: the view the document was
// written from, accepted only if every key is one the writer emits
// (names from the package's own tables, zero entries omitted, the
// evicted aggregate present exactly when windows were evicted) and the
// view passes SeriesView.Check.
func ParseSeries(data []byte) (SeriesView, error) {
	d := document{schema: SeriesSchema}
	var v SeriesView
	o := d.top(data)
	o.get("window_cycles", &v.WindowCycles)
	o.get("max_samples", &v.MaxSamples)
	for _, po := range o.list("procs") {
		var p ProcSeries
		po.get("proc", &p.Proc)
		po.get("evicted_windows", &p.EvictedWindows)
		po.get("evicted_through", &p.EvictedThrough)
		if po.has("evicted") != (p.EvictedWindows > 0) {
			d.failf("%s: evicted aggregate must be present exactly when evicted_windows > 0", po.path)
		} else if p.EvictedWindows > 0 {
			p.Evicted = readSeriesSample(po.child("evicted"))
		}
		for _, so := range po.list("samples") {
			p.Samples = append(p.Samples, readSeriesSample(so))
		}
		p.Totals = readSeriesSample(po.child("totals"))
		po.end()
		v.Procs = append(v.Procs, p)
	}
	o.end()
	if err := v.Check(); err != nil {
		d.failf("%v", err)
	}
	return v, d.err
}

func readSeriesSample(o object) SeriesSample {
	var s SeriesSample
	o.get("window", &s.Window)
	named(o, "counters", NumCounters, s.Counters[:])
	named(o, "cycles", NumPhases, s.Cycles[:])
	ops := o.child("ops")
	for op, name := range opNames {
		if !ops.has(name) {
			continue
		}
		oo := ops.child(name)
		oo.get("count", &s.OpCount[op])
		oo.get("sum_cycles", &s.OpSum[op])
		oo.end()
		if s.OpSum[op] < 0 || s.OpCount[op] == 0 && s.OpSum[op] == 0 {
			o.d.failf("%s: a zero op must be omitted, and sum_cycles cannot be negative", oo.path)
		}
	}
	for ph, c := range s.Cycles {
		if c < 0 {
			o.d.failf("%s: negative %s cycles", o.path, Phase(ph))
		}
	}
	ops.end()
	o.end()
	return s
}

// WriteOpenMetrics serializes the sink's accumulators as an
// OpenMetrics-style text exposition (served at /debug/mmt/metrics):
// counter families for per-machine trace counters and phase cycles, a
// histogram family for per-op cycle latency, ledger gauges, and — when
// sampling is enabled — series meta and per-machine sample counts.
// Safe on a nil sink (writes only the EOF terminator). Cardinality is
// fixed: label values come from the machine set and the static enum
// name tables, never from data.
func (s *Sink) WriteOpenMetrics(w io.Writer) error {
	bw := &errWriter{w: w}
	if s == nil {
		bw.str("# EOF\n")
		return bw.err
	}
	m := s.Snapshot()

	bw.str("# HELP mmt_counter_total Monotonic trace counters per machine.\n")
	bw.str("# TYPE mmt_counter_total counter\n")
	for i := range m.Procs {
		p := &m.Procs[i]
		for c := Counter(0); c < NumCounters; c++ {
			if p.Counters[c] == 0 {
				continue
			}
			bw.str("mmt_counter_total{machine=" + jsonString(p.Proc) + ",counter=" + jsonString(c.String()) + "} " +
				strconv.FormatUint(p.Counters[c], 10) + "\n")
		}
	}

	bw.str("# HELP mmt_phase_cycles_total Simulated cycles per cost phase per machine.\n")
	bw.str("# TYPE mmt_phase_cycles_total counter\n")
	for i := range m.Procs {
		p := &m.Procs[i]
		for ph := Phase(0); ph < NumPhases; ph++ {
			if p.Cycles[ph] == 0 {
				continue
			}
			bw.str("mmt_phase_cycles_total{machine=" + jsonString(p.Proc) + ",phase=" + jsonString(ph.String()) + "} " +
				cyc(p.Cycles[ph]) + "\n")
		}
	}

	bw.str("# HELP mmt_op_cycles Per-operation cycle-latency distribution.\n")
	bw.str("# TYPE mmt_op_cycles histogram\n")
	for i := range m.Procs {
		p := &m.Procs[i]
		for op := Op(0); int(op) < NumOps; op++ {
			h := &p.Ops[op]
			if h.Count == 0 {
				continue
			}
			labels := "{machine=" + jsonString(p.Proc) + ",op=" + jsonString(op.String())
			var cum uint64
			for b := 0; b < HistBuckets; b++ {
				if h.Buckets[b] == 0 {
					continue
				}
				cum += h.Buckets[b]
				bw.str("mmt_op_cycles_bucket" + labels + ",le=" + jsonString(cyc(BucketBound(b))) + "} " +
					strconv.FormatUint(cum, 10) + "\n")
			}
			bw.str("mmt_op_cycles_bucket" + labels + ",le=\"+Inf\"} " + strconv.FormatUint(h.Count, 10) + "\n")
			bw.str("mmt_op_cycles_sum" + labels + "} " + cyc(h.Sum) + "\n")
			bw.str("mmt_op_cycles_count" + labels + "} " + strconv.FormatUint(h.Count, 10) + "\n")
		}
	}

	bw.str("# HELP mmt_sec_events_total Security-event ledger entries ever recorded.\n")
	bw.str("# TYPE mmt_sec_events_total counter\n")
	s.mu.Lock()
	seq := s.ledger.seq
	droppedN := s.ledger.dropped()
	s.mu.Unlock()
	bw.str("mmt_sec_events_total " + strconv.FormatUint(seq, 10) + "\n")
	bw.str("# HELP mmt_sec_events_dropped_total Ledger entries evicted by the ring bound.\n")
	bw.str("# TYPE mmt_sec_events_dropped_total counter\n")
	bw.str("mmt_sec_events_dropped_total " + strconv.FormatUint(droppedN, 10) + "\n")

	if v, ok := s.SeriesSnapshot(); ok {
		bw.str("# HELP mmt_series_window_cycles Sampling window size in simulated cycles.\n")
		bw.str("# TYPE mmt_series_window_cycles gauge\n")
		bw.str("mmt_series_window_cycles " + strconv.FormatUint(v.WindowCycles, 10) + "\n")
		bw.str("# HELP mmt_series_samples_total Window samples materialized per machine (evicted + retained).\n")
		bw.str("# TYPE mmt_series_samples_total counter\n")
		for i := range v.Procs {
			p := &v.Procs[i]
			n := p.EvictedWindows + uint64(len(p.Samples))
			bw.str("mmt_series_samples_total{machine=" + jsonString(p.Proc) + "} " +
				strconv.FormatUint(n, 10) + "\n")
		}
	}

	bw.str("# EOF\n")
	return bw.err
}
