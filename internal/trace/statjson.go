package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mmt/internal/sim"
)

// This file renders the histogram and security-event views of a Sink as
// machine-readable JSON, under the same determinism contract as
// export.go: hand-assembled output, no map iteration, no wall-clock
// reads, fixed float formatting — identical runs serialize to identical
// bytes at any worker count.

// HistSchema identifies the histogram export format.
const HistSchema = "mmt-hist/v1"

// EventsSchema identifies the security-event ledger export format
// (JSON Lines: one header object, then one object per event).
const EventsSchema = "mmt-events/v1"

// WriteHistJSON serializes every non-empty per-operation histogram as a
// single JSON object (schema mmt-hist/v1). Processes appear in name
// order, operations in enum order, and only occupied buckets are
// listed, each with its exclusive upper bound in cycles. Safe on a nil
// sink (writes an empty procs list).
func (s *Sink) WriteHistJSON(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.str("{\n  \"schema\": \"" + HistSchema + "\",\n  \"procs\": [")
	if s != nil {
		m := s.Snapshot()
		firstProc := true
		for i := range m.Procs {
			p := &m.Procs[i]
			if !procHasSamples(p) {
				continue
			}
			if !firstProc {
				bw.str(",")
			}
			firstProc = false
			bw.str("\n    {\"proc\": " + jsonString(p.Proc) + ", \"ops\": [")
			firstOp := true
			for op := Op(0); int(op) < NumOps; op++ {
				h := &p.Ops[op]
				if h.Count == 0 {
					continue
				}
				if !firstOp {
					bw.str(",")
				}
				firstOp = false
				bw.str("\n      ")
				writeHistObject(bw, op, h)
			}
			bw.str("\n    ]}")
		}
		if !firstProc {
			bw.str("\n  ")
		}
	}
	bw.str("]\n}\n")
	return bw.err
}

func procHasSamples(p *ProcMetrics) bool {
	for op := range p.Ops {
		if p.Ops[op].Count != 0 {
			return true
		}
	}
	return false
}

func writeHistObject(bw *errWriter, op Op, h *Histogram) {
	bw.str("{\"op\": " + jsonString(op.String()) +
		", \"count\": " + strconv.FormatUint(h.Count, 10) +
		", \"sum_cycles\": " + cyc(h.Sum) +
		", \"min_cycles\": " + cyc(h.Min) +
		", \"max_cycles\": " + cyc(h.Max) +
		", \"mean_cycles\": " + cyc(h.Mean()) +
		", \"p50_cycles\": " + cyc(h.Quantile(0.50)) +
		", \"p90_cycles\": " + cyc(h.Quantile(0.90)) +
		", \"p99_cycles\": " + cyc(h.Quantile(0.99)) +
		", \"buckets\": [")
	first := true
	for i := 0; i < HistBuckets; i++ {
		if h.Buckets[i] == 0 {
			continue
		}
		if !first {
			bw.str(", ")
		}
		first = false
		bw.str("{\"le_cycles\": " + cyc(BucketBound(i)) +
			", \"count\": " + strconv.FormatUint(h.Buckets[i], 10) + "}")
	}
	bw.str("]}")
}

// ParseHist is WriteHistJSON's reader. It rebuilds every histogram and
// accepts only what the writer can produce: name-ordered non-empty
// procs, known operations listed once, occupied buckets at strictly
// increasing power-of-two bounds whose counts sum to count, min <= max,
// and mean and p50/p90/p99 equal to what the rebuilt histogram derives
// (cycle values round-trip exactly, so equality is bit for bit).
func ParseHist(data []byte) (Metrics, error) {
	d := document{schema: HistSchema}
	var m Metrics
	o := d.top(data)
	for i, po := range o.list("procs") {
		var p ProcMetrics
		po.get("proc", &p.Proc)
		if p.Proc == "" || i > 0 && p.Proc <= m.Procs[i-1].Proc {
			d.failf("%s: proc %q is empty or out of name order", po.path, p.Proc)
		}
		ops := po.list("ops")
		if len(ops) == 0 {
			d.failf("%s: a proc without ops must be omitted", po.path)
		}
		for _, oo := range ops {
			h := &p.Ops[enum(oo, "op", Op(NumOps))]
			if h.Count != 0 {
				d.failf("%s: op listed twice", oo.path)
			}
			readHistObject(oo, h)
		}
		po.end()
		m.Procs = append(m.Procs, p)
	}
	o.end()
	return m, d.err
}

func readHistObject(o object, h *Histogram) {
	o.get("count", &h.Count)
	o.get("sum_cycles", &h.Sum)
	o.get("min_cycles", &h.Min)
	o.get("max_cycles", &h.Max)
	if h.Count == 0 || h.Min < 0 || h.Min > h.Max {
		o.d.failf("%s: count %d with min_cycles %v, max_cycles %v: empty or out of order", o.path, h.Count, h.Min, h.Max)
	}
	var total uint64
	next := 0
	for _, bo := range o.list("buckets") {
		var le sim.Cycles
		var n uint64
		bo.get("le_cycles", &le)
		bo.get("count", &n)
		bo.end()
		for next < HistBuckets && BucketBound(next) != le {
			next++
		}
		if next == HistBuckets || n == 0 {
			o.d.failf("%s: le_cycles %v is not the next bucket bound, or count %d is zero", bo.path, le, n)
			return
		}
		h.Buckets[next] = n
		total += n
		next++
	}
	if total != h.Count {
		o.d.failf("%s: buckets sum to %d, want count %d", o.path, total, h.Count)
	}
	derived := [...]sim.Cycles{h.Mean(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)}
	for i, key := range [...]string{"mean_cycles", "p50_cycles", "p90_cycles", "p99_cycles"} {
		var got sim.Cycles
		if o.get(key, &got); got != derived[i] {
			o.d.failf("%s: %s is %v, the histogram says %v", o.path, key, got, derived[i])
		}
	}
	o.end()
}

// WriteEventsJSONL serializes the security-event ledger as JSON Lines
// (schema mmt-events/v1): a header object carrying the schema name, the
// retained event count and the dropped count, then one object per event,
// oldest first. Safe on a nil sink (writes a header with zero events).
func (s *Sink) WriteEventsJSONL(w io.Writer) error {
	bw := &errWriter{w: w}
	events := s.SecEvents()
	var dropped uint64
	if s != nil {
		dropped = s.EventsDropped()
	}
	bw.str(fmt.Sprintf(`{"schema":"%s","events":%d,"dropped":%d}`+"\n",
		EventsSchema, len(events), dropped))
	for i := range events {
		writeSecEventLine(bw, &events[i])
	}
	return bw.err
}

func writeSecEventLine(bw *errWriter, ev *SecEvent) {
	bw.str(`{"seq":` + strconv.FormatUint(ev.Seq, 10) +
		`,"proc":` + jsonString(ev.Proc) +
		`,"kind":` + jsonString(ev.Kind.String()) +
		`,"severity":` + jsonString(ev.Kind.Severity().String()) +
		`,"window":` + strconv.FormatUint(ev.Window, 10) +
		`,"time_us":` + usec(ev.Time) +
		`,"addr":"0x` + strconv.FormatUint(ev.Addr, 16) + `"` +
		`,"detail":` + jsonString(ev.Detail))
	if len(ev.Flight) > 0 {
		bw.str(`,"flight":[`)
		for i := range ev.Flight {
			fs := &ev.Flight[i]
			if i > 0 {
				bw.str(",")
			}
			bw.str(`{"phase":` + jsonString(fs.Phase.String()) +
				`,"begin_us":` + usec(fs.Begin) +
				`,"end_us":` + usec(fs.End))
			if fs.Trace.Valid() {
				bw.str(`,"trace":` + jsonString(fs.Trace.String()) +
					`,"span":` + strconv.FormatUint(uint64(fs.Span), 10))
			}
			bw.str("}")
		}
		bw.str("]")
	}
	bw.str("}\n")
}

// ParseEvents is WriteEventsJSONL's reader: the retained ledger entries,
// oldest first, and the header's dropped count. It accepts only what the
// writer can produce: a header whose event count matches the lines that
// follow, strictly increasing sequence numbers, known kinds carrying
// their own severity, 0x-prefixed hex addresses, non-negative times, and
// flight spans of known phases with ordered intervals.
func ParseEvents(data []byte) (events []SecEvent, dropped uint64, err error) {
	d := document{schema: EventsSchema}
	dec := json.NewDecoder(bytes.NewReader(data))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, 0, fmt.Errorf("%s: bad header line: %w", EventsSchema, err)
	}
	hdr := d.top(raw)
	var want int
	hdr.get("events", &want)
	hdr.get("dropped", &dropped)
	hdr.end()
	for dec.More() {
		if err := dec.Decode(&raw); err != nil {
			return nil, 0, fmt.Errorf("%s: event %d: %w", EventsSchema, len(events), err)
		}
		ev := readSecEventLine(d.object(fmt.Sprintf("event %d", len(events)), raw))
		if n := len(events); n > 0 && ev.Seq <= events[n-1].Seq {
			d.failf("event %d: seq %d not after %d", n, ev.Seq, events[n-1].Seq)
		}
		events = append(events, ev)
	}
	if len(events) != want {
		d.failf("header says %d events, file has %d", want, len(events))
	}
	return events, dropped, d.err
}

func readSecEventLine(o object) SecEvent {
	var ev SecEvent
	var addr string
	o.get("seq", &ev.Seq)
	o.get("proc", &ev.Proc)
	ev.Kind = enum(o, "kind", EventKind(NumEventKinds))
	if sev := enum(o, "severity", SevError+1); sev != ev.Kind.Severity() {
		o.d.failf("%s: severity %q is not that of kind %q", o.path, sev, ev.Kind)
	}
	o.get("window", &ev.Window)
	ev.Time = o.usec("time_us")
	o.get("addr", &addr)
	o.get("detail", &ev.Detail)
	var err error
	if ev.Addr, err = strconv.ParseUint(strings.TrimPrefix(addr, "0x"), 16, 64); err != nil || !strings.HasPrefix(addr, "0x") {
		o.d.failf("%s: addr %q is not 0x-prefixed hex", o.path, addr)
	}
	if ev.Proc == "" || ev.Time < 0 {
		o.d.failf("%s: empty proc or negative time_us", o.path)
	}
	if o.has("flight") { // written only when non-empty
		for _, fo := range o.list("flight") {
			fs := FlightSpan{Phase: enum(fo, "phase", NumPhases), Begin: fo.usec("begin_us"), End: fo.usec("end_us")}
			if fo.has("trace") { // causal link: both keys or neither
				fs.Trace = fo.traceID("trace")
				fo.get("span", &fs.Span)
			}
			fo.end()
			if fs.Begin < 0 || fs.End < fs.Begin {
				o.d.failf("%s: interval [begin_us, end_us] out of order", fo.path)
			}
			ev.Flight = append(ev.Flight, fs)
		}
	}
	o.end()
	return ev
}
