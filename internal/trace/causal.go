package trace

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"mmt/internal/sim"
)

// This file is the causal half of the trace layer: deterministic trace
// identities minted at migration/connect roots, span links that tie one
// machine's spans to another's, and the per-migration tree/critical-path
// views the mmt-causal/v1 exporter and the sidecars render.
//
// Identity rules (see DESIGN.md §13):
//
//   - A TraceID is (process name, per-process monotonic sequence) — never
//     randomness, never wall-clock — so identical runs mint identical IDs
//     and the export stays byte-identical at any worker count.
//   - Span IDs are allocated per trace, 1-based, parents before children,
//     so parent < span always holds and the span set of a trace forms a
//     tree by construction.
//   - A Context travels across machines as observability metadata riding
//     alongside the wire payload (netsim.Message.Trace); it is never part
//     of any MAC'd or sealed byte string, so tracing cannot perturb the
//     security protocol and a tampered context can at worst mislabel a
//     span.

// TraceID names one causal trace: a migration or connect root. The zero
// value is the invalid ID (tracing disabled at the root).
type TraceID struct {
	// Proc is the process (machine) that opened the trace root.
	Proc string
	// Seq is the root process's monotonic trace counter, 1-based.
	Seq uint64
}

// Valid reports whether the ID names a real trace.
func (id TraceID) Valid() bool { return id.Proc != "" }

// String renders the ID as "proc#seq".
func (id TraceID) String() string {
	if !id.Valid() {
		return "invalid"
	}
	return id.Proc + "#" + strconv.FormatUint(id.Seq, 10)
}

// Context is the causal propagation token: which trace, and which span
// inside it is the parent of whatever happens next. The zero value is
// the disabled context; every consumer treats it as "do not record".
type Context struct {
	ID TraceID
	// Span is the parent span ID for the next child (0 = the root itself
	// has not recorded yet, i.e. children of the zero context's trace
	// attach to the root).
	Span uint32
}

// Valid reports whether the context carries a live trace.
func (c Context) Valid() bool { return c.ID.Valid() }

// NewTrace mints a fresh trace identity rooted at this probe's process.
// On a nil probe it returns the zero (disabled) Context.
func (p *Probe) NewTrace() Context {
	if p == nil {
		return Context{}
	}
	p.sink.mu.Lock()
	p.proc.causalSeq++
	id := TraceID{Proc: p.proc.name, Seq: p.proc.causalSeq}
	p.sink.mu.Unlock()
	return Context{ID: id}
}

// nextSpanLocked allocates the next span ID of a trace. Caller holds
// s.mu.
func (s *Sink) nextSpanLocked(id TraceID) uint32 {
	if s.spanSeq == nil {
		s.spanSeq = make(map[TraceID]uint32)
	}
	s.spanSeq[id]++
	return s.spanSeq[id]
}

// BeginSpan opens a causal span: a child of ctx's parent span, on this
// probe's process, in the given phase. Returns nil — the universal
// no-op — when the probe is disabled or the context is invalid, so call
// sites need no branches. Nothing is recorded until End.
func (p *Probe) BeginSpan(ctx Context, ph Phase, now sim.Time) *ActiveSpan {
	if p == nil || !ctx.Valid() {
		return nil
	}
	p.sink.mu.Lock()
	id := p.sink.nextSpanLocked(ctx.ID)
	p.sink.mu.Unlock()
	return &ActiveSpan{probe: p, trace: ctx.ID, span: id, parent: ctx.Span, phase: ph, begin: now}
}

// CausalSpan records a completed child span of ctx immediately and
// returns the context for *its* children. On a nil probe or invalid
// context it records nothing and returns ctx unchanged.
func (p *Probe) CausalSpan(ctx Context, ph Phase, begin, end sim.Time, cycles sim.Cycles) Context {
	sp := p.BeginSpan(ctx, ph, begin)
	if sp == nil {
		return ctx
	}
	sp.AddCycles(cycles)
	sp.End(end)
	return sp.Context()
}

// ActiveSpan is an open causal span. A nil *ActiveSpan is the disabled
// state: every method is a nil-safe no-op, mirroring the nil-Probe
// convention.
type ActiveSpan struct {
	probe  *Probe
	trace  TraceID
	span   uint32
	parent uint32
	phase  Phase
	begin  sim.Time
	cycles sim.Cycles
}

// Context returns the propagation token that parents children under this
// span. On a nil span it returns the zero (disabled) Context.
func (a *ActiveSpan) Context() Context {
	if a == nil {
		return Context{}
	}
	return Context{ID: a.trace, Span: a.span}
}

// AddCycles attributes simulated cycles to this span (the span's own
// cost, excluding its children's).
func (a *ActiveSpan) AddCycles(n sim.Cycles) {
	if a == nil {
		return
	}
	a.cycles += n
}

// End closes the span at the given simulated instant and records it as
// an Event carrying the causal link fields.
func (a *ActiveSpan) End(now sim.Time) {
	if a == nil {
		return
	}
	if now < a.begin {
		now = a.begin
	}
	p := a.probe
	p.sink.mu.Lock()
	p.sink.events = append(p.sink.events, Event{
		Proc: p.proc.name, Phase: a.phase, Begin: a.begin, End: now,
		Trace: a.trace, Span: a.span, Parent: a.parent, Cycles: a.cycles,
	})
	p.sink.mu.Unlock()
}

// CausalSpan is one recorded span of a causal trace, as the
// mmt-causal/v1 document carries it.
type CausalSpan struct {
	// Span is the 1-based span ID within the trace; Parent is the parent
	// span's ID (0 for the root).
	Span   uint32 `json:"span"`
	Parent uint32 `json:"parent"`
	// Proc is the machine that recorded the span.
	Proc  string `json:"proc"`
	Phase Phase  `json:"phase"`
	Begin Usec   `json:"begin_us"`
	End   Usec   `json:"end_us"`
	// Cycles is the span's own attributed cost (children excluded).
	Cycles sim.Cycles `json:"cycles"`
}

// CausalTrace is one migration's (or connect handshake's) complete span
// tree, plus the derived end-to-end accounting, as the mmt-causal/v1
// document carries it.
type CausalTrace struct {
	// ID names the trace; RootProc and Seq spell it out again.
	ID       TraceID `json:"id"`
	RootProc string  `json:"root_proc"`
	Seq      uint64  `json:"seq"`
	// TotalCycles sums every span's attributed cycles: the migration's
	// end-to-end simulated cost across all machines.
	TotalCycles sim.Cycles `json:"total_cycles"`
	// CriticalPath is the root-to-leaf chain of span IDs that ends
	// latest; CriticalElapsed is that leaf's End minus the root's Begin —
	// the migration's end-to-end simulated latency.
	CriticalElapsed Usec     `json:"critical_elapsed_us"`
	CriticalPath    []uint32 `json:"critical_path"`
	// Spans in ascending span-ID order (parents precede children).
	Spans []CausalSpan `json:"spans"`
}

// Check holds the trace to the tree the recorder builds, its id spelled
// out again as root_proc and seq: the first span is the only root, span
// ids strictly increase and every parent precedes its children (so the
// graph is acyclic by construction), child intervals nest inside their
// parent's, total_cycles is the sum of span cycles, and critical_path is
// a chain of parent-child edges from the root whose last span ends
// critical_elapsed_us after the root begins. It holds a live trace at
// the recorder's precision and a decoded one at the document's.
func (t *CausalTrace) Check() error {
	at := func(format string, args ...interface{}) error {
		return fmt.Errorf("trace %q: %s", t.ID.String(), fmt.Sprintf(format, args...))
	}
	if id := (TraceID{Proc: t.RootProc, Seq: t.Seq}); t.ID != id || !id.Valid() || len(t.Spans) == 0 {
		return at("no spans, or id is not root_proc#seq (%s)", id)
	}
	byID := make(map[uint32]*CausalSpan, len(t.Spans))
	var sum sim.Cycles
	for i := range t.Spans {
		sp := &t.Spans[i]
		if sp.Span == 0 || i > 0 && sp.Span <= t.Spans[i-1].Span {
			return at("span ids not strictly increasing at span %d", sp.Span)
		}
		if sp.Proc == "" || sp.Cycles < 0 || sp.Begin < 0 || sp.End < sp.Begin {
			return at("span %d: empty proc, negative cycles, or interval [%v,%v] out of order", sp.Span, sp.Begin, sp.End)
		}
		if i == 0 {
			if sp.Parent != 0 {
				return at("first span %d is not the root", sp.Span)
			}
		} else if parent, ok := byID[sp.Parent]; !ok {
			return at("span %d: parent %d does not precede it (the one root, parent 0, comes first)", sp.Span, sp.Parent)
		} else if sp.Begin < parent.Begin || sp.End > parent.End {
			return at("span %d: interval [%v,%v]us escapes parent %d's [%v,%v]us",
				sp.Span, sp.Begin, sp.End, sp.Parent, parent.Begin, parent.End)
		}
		byID[sp.Span] = sp
		sum += sp.Cycles
	}
	if !SumsAgree(sum, t.TotalCycles) {
		return at("span cycles sum to %v, total_cycles says %v", sum, t.TotalCycles)
	}
	root := &t.Spans[0]
	if len(t.CriticalPath) == 0 || t.CriticalPath[0] != root.Span {
		return at("critical_path %v does not start at root %d", t.CriticalPath, root.Span)
	}
	for i, id := range t.CriticalPath[1:] {
		if sp, ok := byID[id]; !ok || sp.Parent != t.CriticalPath[i] {
			return at("critical_path step %d -> %d is not a parent-child edge", t.CriticalPath[i], id)
		}
	}
	// A document rounds begin, end and the elapsed time to 1 ns each, so
	// the recomputed difference may sit 1.5 ns from the stated one.
	leaf := byID[t.CriticalPath[len(t.CriticalPath)-1]]
	if elapsed := leaf.End - root.Begin; math.Abs(float64(elapsed-t.CriticalElapsed)) > 2e-3 {
		return at("critical path takes %vus, critical_elapsed_us says %v", elapsed, t.CriticalElapsed)
	}
	return nil
}

// SumsAgree reports whether two orders of the same cycle sum agree:
// relative tolerance 1e-9, far below any real cost but above the slack
// float64 re-association leaves.
func SumsAgree(a, b sim.Cycles) bool {
	return math.Abs(float64(a-b)) <= 1e-9*math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
}

// CausalTraces assembles the recorded causal spans into per-trace trees,
// ordered by (root process, sequence), at the recorder's full precision.
// Safe on a nil sink (returns nil).
func (s *Sink) CausalTraces() []CausalTrace {
	events := s.Events()
	if len(events) == 0 {
		return nil
	}
	type tree struct {
		t     CausalTrace
		spans []Event
	}
	byID := make(map[TraceID]*tree)
	var order []*tree
	for _, ev := range events {
		if !ev.Trace.Valid() {
			continue
		}
		t, ok := byID[ev.Trace]
		if !ok {
			t = &tree{t: CausalTrace{ID: ev.Trace, RootProc: ev.Trace.Proc, Seq: ev.Trace.Seq}}
			byID[ev.Trace] = t
			order = append(order, t)
		}
		t.spans = append(t.spans, ev)
		t.t.TotalCycles += ev.Cycles
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i].t.ID, order[j].t.ID
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Seq < b.Seq
	})
	out := make([]CausalTrace, 0, len(order))
	for _, t := range order {
		sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Span < t.spans[j].Span })
		for _, ev := range t.spans {
			t.t.Spans = append(t.t.Spans, CausalSpan{Span: ev.Span, Parent: ev.Parent, Proc: ev.Proc,
				Phase: ev.Phase, Begin: Micros(ev.Begin), End: Micros(ev.End), Cycles: ev.Cycles})
		}
		path, elapsed := criticalPath(t.spans)
		t.t.CriticalPath, t.t.CriticalElapsed = path, Micros(elapsed)
		out = append(out, t.t)
	}
	return out
}

// criticalPath walks from the root, at each step descending into the
// child whose interval ends latest (ties broken toward the smaller span
// ID), and reports the chain plus leaf-End minus root-Begin. An empty or
// rootless span set yields a nil path.
func criticalPath(spans []Event) ([]uint32, sim.Time) {
	var root *Event
	for i := range spans {
		if spans[i].Parent == 0 {
			root = &spans[i]
			break
		}
	}
	if root == nil {
		return nil, 0
	}
	path := []uint32{root.Span}
	cur := root
	for {
		var next *Event
		for i := range spans {
			sp := &spans[i]
			if sp.Parent != cur.Span {
				continue
			}
			if next == nil || sp.End > next.End || (sp.End == next.End && sp.Span < next.Span) {
				next = sp
			}
		}
		if next == nil {
			break
		}
		path = append(path, next.Span)
		cur = next
	}
	return path, cur.End - root.Begin
}
