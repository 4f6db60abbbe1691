package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mmt/internal/sim"
)

// This file renders a Sink as a Chrome trace (the "JSON Array Format"
// chrome://tracing and Perfetto read) and as a compact text summary.

// ChromeTrace is a Chrome trace-event document: its records in file
// order, each a *ChromeProc, *ChromeSpan or *ChromeCounters.
type ChromeTrace []ChromeRecord

// ChromeRecord is one record of a ChromeTrace.
type ChromeRecord interface{ head() *ChromeHead }

// ChromeHead is what every record carries: its ph (M, X or C), and the
// pid and tid it belongs to.
type ChromeHead struct {
	Ph  string `json:"ph"`
	Pid int    `json:"pid"`
	Tid int    `json:"tid"`
}

func (h *ChromeHead) head() *ChromeHead { return h }

// ChromeProc is an "M" process_name record: the name of pid's process.
type ChromeProc struct {
	ChromeHead
	Name string `json:"name"`
	Args struct {
		Name string `json:"name"`
	} `json:"args"`
}

// ChromeSpan is an "X" record: one span, named after its phase, in
// microseconds of simulated time, with its causal link as args when it
// has one.
type ChromeSpan struct {
	ChromeHead
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ts   Usec      `json:"ts"`
	Dur  Usec      `json:"dur"`
	Args *SpanLink `json:"args,omitempty"`
}

// SpanLink ties a span into its causal trace so that Perfetto queries can
// stitch cross-machine trees.
type SpanLink struct {
	Trace  TraceID `json:"trace"`
	Span   uint32  `json:"span"`
	Parent uint32  `json:"parent"`
}

// ChromeCounters is a "C" record: a process's final counter values.
type ChromeCounters struct {
	ChromeHead
	Name string `json:"name"`
	Ts   Usec   `json:"ts"`
	Args Counts `json:"args"`
}

// chromeTrace is the sink as a Chrome trace: an "M" record per process
// (pids 1, 2, … in name order), an "X" record per recorded span, and a
// "C" record per process with any counter, stamped at the process's last
// span end (0 without spans). Safe on a nil sink (an empty array).
func (s *Sink) chromeTrace() ChromeTrace {
	t := ChromeTrace{}
	m := s.Snapshot()
	pids := make(map[string]int, len(m.Procs))
	lastEnd := make(map[string]sim.Time, len(m.Procs))
	for i := range m.Procs {
		pids[m.Procs[i].Proc] = i + 1
		proc := &ChromeProc{ChromeHead: ChromeHead{"M", i + 1, 1}, Name: "process_name"}
		proc.Args.Name = m.Procs[i].Proc
		t = append(t, proc)
	}
	for _, ev := range s.Events() {
		x := &ChromeSpan{ChromeHead: ChromeHead{"X", pids[ev.Proc], 1}, Name: ev.Phase.String(), Cat: "mmt",
			Ts: Micros(ev.Begin), Dur: Usec(max(ev.End.Microseconds()-ev.Begin.Microseconds(), 0))}
		if ev.Trace.Valid() {
			x.Args = &SpanLink{Trace: ev.Trace, Span: ev.Span, Parent: ev.Parent}
		}
		t = append(t, x)
		lastEnd[ev.Proc] = max(lastEnd[ev.Proc], ev.End)
	}
	for i := range m.Procs {
		if c := Counts(m.Procs[i].Counters); c != (Counts{}) {
			t = append(t, &ChromeCounters{ChromeHead{"C", i + 1, 1}, "counters", Micros(lastEnd[m.Procs[i].Proc]), c})
		}
	}
	return t
}

// WriteChromeTrace writes the sink's Chrome trace. Safe on a nil sink.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	return newEncoder(w).Encode(s.chromeTrace())
}

// ParseChromeTrace reads a Chrome trace record by record, each into the
// struct its ph names through DecodeStrict; ChromeTrace.Check says what
// else it refuses.
func ParseChromeTrace(data []byte) (ChromeTrace, error) {
	var raws []json.RawMessage
	if err := json.Unmarshal(data, &raws); err != nil {
		return nil, fmt.Errorf("chrome trace: not a JSON array: %w", err)
	}
	t := make(ChromeTrace, len(raws))
	for i, raw := range raws {
		var h ChromeHead
		json.Unmarshal(raw, &h) // a probe: DecodeStrict judges the record
		switch h.Ph {
		case "M":
			t[i] = new(ChromeProc)
		case "X":
			t[i] = new(ChromeSpan)
		case "C":
			t[i] = new(ChromeCounters)
		default:
			return nil, fmt.Errorf("chrome trace: event %d: unknown ph %q (want M, X or C)", i, h.Ph)
		}
		if err := DecodeStrict(fmt.Sprintf("chrome trace event %d", i), raw, t[i]); err != nil {
			return nil, err
		}
	}
	if err := t.Check(); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	return t, nil
}

// Check holds the trace to what the writer produces: pids and tids >= 1,
// a process_name record with a name for every pid before its first use,
// spans of category "mmt" named after a phase with non-negative ts and
// dur, and counter records named "counters" with a non-negative ts and
// at least one counter.
func (t ChromeTrace) Check() error {
	named := map[int]bool{}
	for i, r := range t {
		h := r.head()
		var err error
		switch r := r.(type) {
		case *ChromeProc:
			if h.Ph != "M" || r.Name != "process_name" || r.Args.Name == "" {
				err = errors.New("metadata must be a process_name with a non-empty args.name")
			}
			named[h.Pid] = true
		case *ChromeSpan:
			if _, ok := Lookup(r.Name, NumPhases); !ok {
				err = fmt.Errorf("unknown name %q", r.Name)
			} else if h.Ph != "X" || r.Cat != "mmt" || r.Ts < 0 || r.Dur < 0 {
				err = fmt.Errorf("cat %q is not \"mmt\", or negative ts or dur", r.Cat)
			}
		case *ChromeCounters:
			if h.Ph != "C" || r.Name != "counters" || r.Ts < 0 || r.Args == (Counts{}) {
				err = errors.New(`counter records are named "counters" and need a non-negative ts and non-empty args`)
			}
		}
		if err == nil && (h.Pid < 1 || h.Tid < 1) {
			err = fmt.Errorf("pid %d and tid %d must be >= 1", h.Pid, h.Tid)
		} else if err == nil && !named[h.Pid] {
			err = fmt.Errorf("pid %d has no process_name metadata", h.Pid)
		}
		if err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// cyc renders a cycle count. Cycle totals are sums of dyadic-rational
// costs, so the shortest round-trip form is exact and stable.
func cyc(c sim.Cycles) string {
	return strconv.FormatFloat(float64(c), 'f', -1, 64)
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
