package trace

import (
	"io"
	"strconv"
)

// CausalSchema identifies the causal-trace export format.
const CausalSchema = "mmt-causal/v1"

// WriteCausalJSON serializes the sink's causal traces (schema
// mmt-causal/v1) under the determinism contract of export.go: traces in
// (root process, sequence) order, spans in span-ID order, hand-assembled
// JSON, fixed float formatting — identical runs serialize to identical
// bytes at any worker count. Safe on a nil sink (writes an empty traces
// list).
func (s *Sink) WriteCausalJSON(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.str("{\n  \"schema\": \"" + CausalSchema + "\",\n  \"traces\": [")
	traces := s.CausalTraces()
	for i := range traces {
		t := &traces[i]
		if i > 0 {
			bw.str(",")
		}
		bw.str("\n    {\"id\": " + jsonString(t.ID.String()) +
			", \"root_proc\": " + jsonString(t.ID.Proc) +
			", \"seq\": " + strconv.FormatUint(t.ID.Seq, 10) +
			", \"total_cycles\": " + cyc(t.TotalCycles) +
			", \"critical_elapsed_us\": " + usec(t.CriticalElapsed) +
			", \"critical_path\": [")
		for j, id := range t.CriticalPath {
			if j > 0 {
				bw.str(", ")
			}
			bw.str(strconv.FormatUint(uint64(id), 10))
		}
		bw.str("], \"spans\": [")
		for j := range t.Spans {
			sp := &t.Spans[j]
			if j > 0 {
				bw.str(",")
			}
			bw.str("\n      {\"span\": " + strconv.FormatUint(uint64(sp.Span), 10) +
				", \"parent\": " + strconv.FormatUint(uint64(sp.Parent), 10) +
				", \"proc\": " + jsonString(sp.Proc) +
				", \"phase\": " + jsonString(sp.Phase.String()) +
				", \"begin_us\": " + usec(sp.Begin) +
				", \"end_us\": " + usec(sp.End) +
				", \"cycles\": " + cyc(sp.Cycles) + "}")
		}
		if len(t.Spans) > 0 {
			bw.str("\n    ")
		}
		bw.str("]}")
	}
	if len(traces) > 0 {
		bw.str("\n  ")
	}
	bw.str("]\n}\n")
	return bw.err
}

// ParseCausal is WriteCausalJSON's reader: the document's traces, each
// with an id that is its root_proc#seq and well formed per
// CausalTrace.Check.
func ParseCausal(data []byte) ([]CausalTrace, error) {
	d := document{schema: CausalSchema}
	var traces []CausalTrace
	o := d.top(data)
	for _, to := range o.list("traces") {
		var t CausalTrace
		var id string
		to.get("id", &id)
		to.get("root_proc", &t.ID.Proc)
		to.get("seq", &t.ID.Seq)
		if id != t.ID.String() {
			d.failf("%s: id %q is not root_proc#seq (%s)", to.path, id, t.ID)
		}
		to.get("total_cycles", &t.TotalCycles)
		t.CriticalElapsed = to.usec("critical_elapsed_us")
		to.get("critical_path", &t.CriticalPath)
		for _, so := range to.list("spans") {
			sp := CausalSpan{Phase: enum(so, "phase", NumPhases), Begin: so.usec("begin_us"), End: so.usec("end_us")}
			so.get("span", &sp.Span)
			so.get("parent", &sp.Parent)
			so.get("proc", &sp.Proc)
			so.get("cycles", &sp.Cycles)
			so.end()
			t.Spans = append(t.Spans, sp)
		}
		to.end()
		if err := t.Check(); err != nil {
			d.failf("%v", err)
		}
		traces = append(traces, t)
	}
	o.end()
	return traces, d.err
}
