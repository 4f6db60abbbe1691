package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mmt/internal/sim"
)

// This file renders a Sink into the Chrome trace-event JSON format
// (the "JSON Array Format" consumed by chrome://tracing and Perfetto)
// and into a compact text summary.
//
// Determinism contract: the writers below never iterate a map, never
// read wall-clock time, and format floats with a fixed precision, so
// two identical simulated runs serialize to byte-identical output. The
// JSON is assembled by hand instead of encoding/json both to keep field
// order pinned and to avoid float round-trip variance.

// pidOf maps a process name to its 1-based pid in name-sorted order.
func pidsByName(procs []ProcMetrics) map[string]int {
	pids := make(map[string]int, len(procs))
	for i := range procs {
		pids[procs[i].Proc] = i + 1
	}
	return pids
}

// jsonString escapes s as a JSON string literal. Process and phase
// names are ASCII identifiers in practice; the escape covers the
// general case anyway.
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&b, "\\u%04x", c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// usec renders a simulated time as microseconds with fixed precision.
// Three fractional digits = nanosecond resolution, enough to keep
// distinct cycle stamps distinct at simulated GHz clocks.
func usec(t sim.Time) string {
	return strconv.FormatFloat(t.Microseconds(), 'f', 3, 64)
}

// cyc renders a cycle count. Cycle totals are sums of dyadic-rational
// costs, so 'g' at full precision round-trips exactly and stays stable.
func cyc(c sim.Cycles) string {
	return strconv.FormatFloat(float64(c), 'f', -1, 64)
}

// WriteChromeTrace serializes the sink as a Chrome trace-event JSON
// array: one process per machine ("M" process_name metadata), one "X"
// complete event per recorded span (ts/dur in microseconds of simulated
// time), and one "C" counter event per process carrying the final
// counter values. Safe on a nil sink (writes an empty array).
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.str("[")
	if s == nil {
		bw.str("]\n")
		return bw.err
	}
	m := s.Snapshot()
	events := s.Events()
	pids := pidsByName(m.Procs)
	first := true
	emit := func(line string) {
		if !first {
			bw.str(",\n")
		} else {
			bw.str("\n")
			first = false
		}
		bw.str(line)
	}
	for i := range m.Procs {
		p := &m.Procs[i]
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":1,"args":{"name":%s}}`,
			pids[p.Proc], jsonString(p.Proc)))
	}
	for _, ev := range events {
		begin := ev.Begin.Microseconds()
		dur := ev.End.Microseconds() - begin
		if dur < 0 {
			dur = 0
		}
		// Causally linked spans carry their (trace, span, parent) link as
		// event args so Perfetto queries can stitch cross-machine trees.
		args := ""
		if ev.Trace.Valid() {
			args = fmt.Sprintf(`,"args":{"trace":%s,"span":%d,"parent":%d}`,
				jsonString(ev.Trace.String()), ev.Span, ev.Parent)
		}
		emit(fmt.Sprintf(`{"name":%s,"cat":"mmt","ph":"X","pid":%d,"tid":1,"ts":%s,"dur":%s%s}`,
			jsonString(ev.Phase.String()), pids[ev.Proc],
			usec(ev.Begin), strconv.FormatFloat(dur, 'f', 3, 64), args))
	}
	// Counter samples: one "C" event per process at its last span end (or
	// 0 if the process recorded no spans), carrying final counter values.
	lastEnd := make(map[string]sim.Time, len(m.Procs))
	for _, ev := range events {
		if ev.End > lastEnd[ev.Proc] {
			lastEnd[ev.Proc] = ev.End
		}
	}
	for i := range m.Procs {
		p := &m.Procs[i]
		var args strings.Builder
		n := 0
		for c := Counter(0); c < NumCounters; c++ {
			if p.Counters[c] == 0 {
				continue
			}
			if n > 0 {
				args.WriteString(",")
			}
			fmt.Fprintf(&args, "%s:%d", jsonString(c.String()), p.Counters[c])
			n++
		}
		if n == 0 {
			continue
		}
		emit(fmt.Sprintf(`{"name":"counters","ph":"C","pid":%d,"tid":1,"ts":%s,"args":{%s}}`,
			pids[p.Proc], usec(lastEnd[p.Proc]), args.String()))
	}
	if !first {
		bw.str("\n")
	}
	bw.str("]\n")
	return bw.err
}

// ParseChromeTrace is WriteChromeTrace's reader: the recorded spans (the
// "X" events, in file order, without the cycle attribution the format
// does not carry). It accepts only what the writer can produce: "M"
// process_name records naming every pid before its first use, "X" events
// of category "mmt" named after a known phase with non-negative ts/dur
// and either the whole trace/span/parent link or none of it, and "C"
// records carrying known, non-zero counters.
func ParseChromeTrace(data []byte) ([]Event, error) {
	d := document{schema: "chrome trace"}
	var events []Event
	procs := map[int]string{}
	for _, o := range d.array("event", data) {
		var ph, cat string
		var pid, tid int
		o.get("ph", &ph)
		o.get("pid", &pid)
		o.get("tid", &tid)
		if pid < 1 || tid < 1 {
			d.failf("%s: pid %d and tid %d must be >= 1", o.path, pid, tid)
		}
		switch ph {
		case "M":
			var name, proc string
			o.get("name", &name)
			args := o.child("args")
			args.get("name", &proc)
			args.end()
			if name != "process_name" || proc == "" {
				d.failf("%s: metadata must be a process_name with a non-empty args.name", o.path)
			}
			procs[pid] = proc
		case "X":
			ev := Event{Proc: procs[pid], Phase: enum(o, "name", NumPhases), Begin: o.usec("ts")}
			ev.End = ev.Begin + o.usec("dur")
			if o.get("cat", &cat); cat != "mmt" || ev.Begin < 0 || ev.End < ev.Begin {
				d.failf("%s: cat %q is not \"mmt\", or negative ts or dur", o.path, cat)
			}
			if o.has("args") { // causal link: all three keys or none
				args := o.child("args")
				ev.Trace = args.traceID("trace")
				args.get("span", &ev.Span)
				args.get("parent", &ev.Parent)
				args.end()
			}
			events = append(events, ev)
		case "C":
			var name string
			var counters, none [NumCounters]uint64
			o.get("name", &name)
			named(o, "args", NumCounters, counters[:])
			if o.usec("ts") < 0 || name != "counters" || counters == none {
				d.failf("%s: counter records are named \"counters\" and need a non-negative ts and non-empty args", o.path)
			}
		default:
			d.failf("%s: unknown ph %q (want M, X or C)", o.path, ph)
		}
		if ph != "M" && procs[pid] == "" {
			d.failf("%s: pid %d has no process_name metadata", o.path, pid)
		}
		o.end()
	}
	return events, d.err
}

// errWriter folds write errors so the exporter body stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

// Summary renders the sink's accumulators as a compact fixed-width text
// table: per-process phase cycle totals (phases with any cycles) and
// counters (counters with any count), processes in name order. Safe on
// a nil sink (returns a disabled notice).
func (s *Sink) Summary() string {
	if s == nil {
		return "trace: disabled\n"
	}
	return s.Snapshot().String()
}

// String renders the snapshot in the same compact text form as
// Sink.Summary.
func (m Metrics) String() string {
	var b strings.Builder
	for i := range m.Procs {
		p := &m.Procs[i]
		fmt.Fprintf(&b, "== %s ==\n", p.Proc)
		var total sim.Cycles
		for ph := Phase(0); ph < NumPhases; ph++ {
			if p.Cycles[ph] == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-14s %14s cycles\n", ph.String(), cyc(p.Cycles[ph]))
			total += p.Cycles[ph]
		}
		if total != 0 {
			fmt.Fprintf(&b, "  %-14s %14s cycles\n", "TOTAL", cyc(total))
		}
		for c := Counter(0); c < NumCounters; c++ {
			if p.Counters[c] == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-22s %12d\n", c.String(), p.Counters[c])
		}
	}
	if b.Len() == 0 {
		return "trace: no activity recorded\n"
	}
	return b.String()
}
