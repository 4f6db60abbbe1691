package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"mmt/internal/sim"
)

// This file holds the histogram and security-event artefacts of a Sink:
// mmt-hist/v1, one JSON document, and mmt-events/v1, JSON Lines whose
// event lines are the ledger's own SecEvents.

// HistSchema identifies the histogram export format.
const HistSchema = "mmt-hist/v1"

// EventsSchema identifies the security-event ledger export format
// (JSON Lines: one header object, then one object per event).
const EventsSchema = "mmt-events/v1"

// HistDoc is the mmt-hist/v1 document: every process with samples, in
// name order, and its non-empty operation histograms, in enum order.
type HistDoc struct {
	Schema string     `json:"schema"`
	Procs  []HistProc `json:"procs"`
}

// HistProc is one process's histograms.
type HistProc struct {
	Proc string   `json:"proc"`
	Ops  []OpHist `json:"ops"`
}

// OpHist is one operation's histogram: its occupied buckets, each with
// its exclusive upper bound in cycles, and what the histogram derives.
type OpHist struct {
	Op      Op           `json:"op"`
	Count   uint64       `json:"count"`
	Sum     sim.Cycles   `json:"sum_cycles"`
	Min     sim.Cycles   `json:"min_cycles"`
	Max     sim.Cycles   `json:"max_cycles"`
	Mean    sim.Cycles   `json:"mean_cycles"`
	P50     sim.Cycles   `json:"p50_cycles"`
	P90     sim.Cycles   `json:"p90_cycles"`
	P99     sim.Cycles   `json:"p99_cycles"`
	Buckets []HistBucket `json:"buckets"`
}

// HistBucket is one occupied bucket.
type HistBucket struct {
	LE    sim.Cycles `json:"le_cycles"`
	Count uint64     `json:"count"`
}

func (m Metrics) histDoc() *HistDoc {
	doc := &HistDoc{Schema: HistSchema, Procs: []HistProc{}}
	for i := range m.Procs {
		p := HistProc{Proc: m.Procs[i].Proc}
		for op := range m.Procs[i].Ops {
			if h := &m.Procs[i].Ops[op]; h.Count != 0 {
				p.Ops = append(p.Ops, opHist(Op(op), h))
			}
		}
		if p.Ops != nil {
			doc.Procs = append(doc.Procs, p)
		}
	}
	return doc
}

func opHist(op Op, h *Histogram) OpHist {
	o := OpHist{Op: op, Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
		Mean: h.Mean(), P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99)}
	for i, n := range h.Buckets {
		if n != 0 {
			o.Buckets = append(o.Buckets, HistBucket{LE: BucketBound(i), Count: n})
		}
	}
	return o
}

// WriteHistJSON writes the sink's mmt-hist/v1 document. Safe on a nil
// sink (an empty procs list).
func (s *Sink) WriteHistJSON(w io.Writer) error {
	return newEncoder(w).Encode(s.Snapshot().histDoc())
}

// ParseHist reads an mmt-hist/v1 document; HistDoc.Check says what it
// refuses.
func ParseHist(data []byte) (*HistDoc, error) { return parseDoc[HistDoc](HistSchema, data) }

// Check holds the document to what the writer produces: name-ordered
// procs each with ops, the ops in enum order, occupied buckets at strictly
// increasing power-of-two bounds whose counts sum to count, min <= max,
// and mean and p50/p90/p99 equal to what the rebuilt histogram derives
// (cycle values round-trip exactly, so equality is bit for bit).
func (d *HistDoc) Check() error {
	if d.Schema != HistSchema {
		return fmt.Errorf("schema is %q", d.Schema)
	}
	for i, p := range d.Procs {
		if p.Proc == "" || i > 0 && p.Proc <= d.Procs[i-1].Proc {
			return fmt.Errorf("procs[%d]: proc %q is empty or out of name order", i, p.Proc)
		}
		if len(p.Ops) == 0 {
			return fmt.Errorf("procs[%d]: a proc without ops must be omitted", i)
		}
		for j := range p.Ops {
			err := p.Ops[j].check()
			if err == nil && j > 0 && p.Ops[j].Op <= p.Ops[j-1].Op {
				err = fmt.Errorf("op %q listed twice or out of enum order", p.Ops[j].Op)
			}
			if err != nil {
				return fmt.Errorf("procs[%d].ops[%d]: %w", i, j, err)
			}
		}
	}
	return nil
}

func (o *OpHist) check() error {
	if o.Count == 0 || o.Min < 0 || o.Min > o.Max {
		return fmt.Errorf("count %d with min_cycles %v, max_cycles %v: empty or out of order", o.Count, o.Min, o.Max)
	}
	h := Histogram{Count: o.Count, Sum: o.Sum, Min: o.Min, Max: o.Max}
	var total uint64
	next := 0
	for _, b := range o.Buckets {
		for next < HistBuckets && BucketBound(next) != b.LE {
			next++
		}
		if next == HistBuckets || b.Count == 0 {
			return fmt.Errorf("le_cycles %v is not the next bucket bound, or count %d is zero", b.LE, b.Count)
		}
		h.Buckets[next] = b.Count
		total += b.Count
		next++
	}
	if total != o.Count {
		return fmt.Errorf("buckets sum to %d, want count %d", total, o.Count)
	}
	if want := opHist(o.Op, &h); !reflect.DeepEqual(*o, want) {
		return fmt.Errorf("mean_cycles, p50_cycles, p90_cycles, p99_cycles are %v, %v, %v, %v; the histogram says %v, %v, %v, %v",
			o.Mean, o.P50, o.P90, o.P99, want.Mean, want.P50, want.P90, want.P99)
	}
	return nil
}

// EventsDoc is the mmt-events/v1 document: its header line, then one line
// per retained ledger entry, oldest first.
type EventsDoc struct {
	Header EventsHeader
	Events []SecEvent
}

// EventsHeader names the schema and counts the retained and the dropped
// entries.
type EventsHeader struct {
	Schema  string `json:"schema"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// HexAddr is an address as a ledger line carries it: 0x-prefixed hex.
type HexAddr uint64

func (a HexAddr) MarshalText() ([]byte, error) {
	return strconv.AppendUint([]byte("0x"), uint64(a), 16), nil
}

func (a *HexAddr) UnmarshalText(b []byte) error {
	digits, ok := strings.CutPrefix(string(b), "0x")
	v, err := strconv.ParseUint(digits, 16, 64)
	if !ok || err != nil {
		return fmt.Errorf("addr %q is not 0x-prefixed hex", b)
	}
	*a = HexAddr(v)
	return nil
}

func (s *Sink) eventsDoc() *EventsDoc {
	events := append([]SecEvent{}, s.SecEvents()...)
	return &EventsDoc{Header: EventsHeader{Schema: EventsSchema, Events: len(events), Dropped: s.EventsDropped()}, Events: events}
}

// WriteEventsJSONL writes the sink's mmt-events/v1 document. Safe on a
// nil sink (a header with zero events).
func (s *Sink) WriteEventsJSONL(w io.Writer) error { return s.eventsDoc().write(w) }

func (d *EventsDoc) write(w io.Writer) error {
	enc := newEncoder(w)
	err := enc.Encode(&d.Header)
	for i := 0; err == nil && i < len(d.Events); i++ {
		err = enc.Encode(&d.Events[i])
	}
	return err
}

// ParseEvents reads an mmt-events/v1 document line by line, each line
// strictly; EventsDoc.Check says what else it refuses.
func ParseEvents(data []byte) (*EventsDoc, error) {
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	doc := &EventsDoc{Events: make([]SecEvent, len(lines)-1)}
	err := DecodeStrict(EventsSchema+" header", lines[0], &doc.Header)
	for i := 0; err == nil && i < len(doc.Events); i++ {
		err = DecodeStrict(fmt.Sprintf("%s event %d", EventsSchema, i), lines[i+1], &doc.Events[i])
	}
	if err == nil {
		err = doc.Check()
	}
	if err != nil {
		return nil, err
	}
	return doc, nil
}

// Check holds the document to what the writer produces: a header count
// equal to the lines that follow, strictly increasing seq, each kind with
// its own severity, a named proc, non-negative times, and flight spans
// whose intervals are in order and whose causal link, if any, has both
// its trace and its span.
func (d *EventsDoc) Check() error {
	if d.Header.Schema != EventsSchema {
		return fmt.Errorf("%s: schema is %q", EventsSchema, d.Header.Schema)
	}
	if d.Header.Events != len(d.Events) {
		return fmt.Errorf("%s: header says %d events, file has %d", EventsSchema, d.Header.Events, len(d.Events))
	}
	for i := range d.Events {
		e := &d.Events[i]
		var err error
		switch {
		case i > 0 && e.Seq <= d.Events[i-1].Seq:
			err = fmt.Errorf("seq %d not after %d", e.Seq, d.Events[i-1].Seq)
		case e.Severity != e.Kind.Severity():
			err = fmt.Errorf("severity %q is not that of kind %q", e.Severity, e.Kind)
		case e.Proc == "" || e.Time < 0:
			err = fmt.Errorf("empty proc or negative time_us")
		}
		for j, f := range e.Flight {
			if err == nil && (f.Begin < 0 || f.End < f.Begin) {
				err = fmt.Errorf("flight[%d]: interval [begin_us, end_us] out of order", j)
			} else if err == nil && f.Trace.Valid() != (f.Span != 0) {
				missing := "trace"
				if f.Trace.Valid() {
					missing = "span"
				}
				err = fmt.Errorf("flight[%d]: a causal link has both its trace and its span: missing key %q", j, missing)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: event %d: %w", EventsSchema, i, err)
		}
	}
	return nil
}
