package trace

import (
	"io"
	"strconv"
	"strings"
)

// WriteOpenMetrics serializes the sink's accumulators as an
// OpenMetrics-style text exposition (served at /debug/mmt/metrics):
// counter families for per-machine trace counters and phase cycles, a
// histogram family for per-op cycle latency, ledger gauges, and — when
// sampling is enabled — series meta and per-machine sample counts.
// Safe on a nil sink (writes only the EOF terminator). Cardinality is
// fixed: label values come from the machine set and the static enum
// name tables, never from data.
func (s *Sink) WriteOpenMetrics(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, "# EOF\n")
		return err
	}
	var b strings.Builder
	m := s.Snapshot()

	b.WriteString("# HELP mmt_counter_total Monotonic trace counters per machine.\n")
	b.WriteString("# TYPE mmt_counter_total counter\n")
	for i := range m.Procs {
		p := &m.Procs[i]
		for c := Counter(0); c < NumCounters; c++ {
			if p.Counters[c] == 0 {
				continue
			}
			b.WriteString("mmt_counter_total{machine=" + label(p.Proc) + ",counter=" + label(c.String()) + "} " +
				strconv.FormatUint(p.Counters[c], 10) + "\n")
		}
	}

	b.WriteString("# HELP mmt_phase_cycles_total Simulated cycles per cost phase per machine.\n")
	b.WriteString("# TYPE mmt_phase_cycles_total counter\n")
	for i := range m.Procs {
		p := &m.Procs[i]
		for ph := Phase(0); ph < NumPhases; ph++ {
			if p.Cycles[ph] == 0 {
				continue
			}
			b.WriteString("mmt_phase_cycles_total{machine=" + label(p.Proc) + ",phase=" + label(ph.String()) + "} " +
				cyc(p.Cycles[ph]) + "\n")
		}
	}

	b.WriteString("# HELP mmt_op_cycles Per-operation cycle-latency distribution.\n")
	b.WriteString("# TYPE mmt_op_cycles histogram\n")
	for _, p := range m.histDoc().Procs {
		for _, h := range p.Ops {
			labels := "{machine=" + label(p.Proc) + ",op=" + label(h.Op.String())
			var cum uint64
			for _, bk := range h.Buckets {
				cum += bk.Count
				b.WriteString("mmt_op_cycles_bucket" + labels + ",le=" + label(cyc(bk.LE)) + "} " +
					strconv.FormatUint(cum, 10) + "\n")
			}
			b.WriteString("mmt_op_cycles_bucket" + labels + ",le=\"+Inf\"} " + strconv.FormatUint(h.Count, 10) + "\n")
			b.WriteString("mmt_op_cycles_sum" + labels + "} " + cyc(h.Sum) + "\n")
			b.WriteString("mmt_op_cycles_count" + labels + "} " + strconv.FormatUint(h.Count, 10) + "\n")
		}
	}

	b.WriteString("# HELP mmt_sec_events_total Security-event ledger entries ever recorded.\n")
	b.WriteString("# TYPE mmt_sec_events_total counter\n")
	s.mu.Lock()
	seq := s.ledger.seq
	droppedN := s.ledger.dropped()
	s.mu.Unlock()
	b.WriteString("mmt_sec_events_total " + strconv.FormatUint(seq, 10) + "\n")
	b.WriteString("# HELP mmt_sec_events_dropped_total Ledger entries evicted by the ring bound.\n")
	b.WriteString("# TYPE mmt_sec_events_dropped_total counter\n")
	b.WriteString("mmt_sec_events_dropped_total " + strconv.FormatUint(droppedN, 10) + "\n")

	if v, ok := s.SeriesSnapshot(); ok {
		b.WriteString("# HELP mmt_series_window_cycles Sampling window size in simulated cycles.\n")
		b.WriteString("# TYPE mmt_series_window_cycles gauge\n")
		b.WriteString("mmt_series_window_cycles " + strconv.FormatUint(v.WindowCycles, 10) + "\n")
		b.WriteString("# HELP mmt_series_samples_total Window samples materialized per machine (evicted + retained).\n")
		b.WriteString("# TYPE mmt_series_samples_total counter\n")
		for i := range v.Procs {
			p := &v.Procs[i]
			n := p.EvictedWindows + uint64(len(p.Samples))
			b.WriteString("mmt_series_samples_total{machine=" + label(p.Proc) + "} " +
				strconv.FormatUint(n, 10) + "\n")
		}
	}

	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// label quotes a label value, escaping what the exposition format
// escapes: backslash, double quote and newline.
func label(v string) string {
	return `"` + labelEscaper.Replace(v) + `"`
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
