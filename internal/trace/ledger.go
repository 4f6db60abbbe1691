package trace

import (
	"slices"

	"mmt/internal/sim"
)

// EventKind classifies one entry in the security-event ledger. Record
// sites pass constant kinds, one per verdict branch, so the set of
// auditable verdicts is statically known; the ledger tests catch a kind
// that is off by one at any site (`make mutate` plants one at each).
type EventKind uint8

const (
	// EvIntegrityFail: a data-line MAC or tree-path verification failed
	// (engine ErrIntegrity).
	EvIntegrityFail EventKind = iota
	// EvAuthFail: a sealed root or AEAD frame failed authentication
	// (ErrAuth).
	EvAuthFail
	// EvReplayReject: a closure was rejected for a non-fresh root counter
	// (ErrReplay).
	EvReplayReject
	// EvReorderReject: a closure was rejected for a non-monotonic
	// global-unique address (ErrReorder).
	EvReorderReject
	// EvStaleCounter: a sender aborted a delegation before sealing
	// because the connection floor had passed the MMT's counter
	// (ErrStaleCounter).
	EvStaleCounter
	// EvMigrationSend: an MMT closure was sealed and put on the wire.
	EvMigrationSend
	// EvMigrationAccept: an incoming MMT closure verified and installed.
	EvMigrationAccept
	// EvMigrationReject: an incoming MMT closure was rejected for a
	// reason other than the specific verdicts above.
	EvMigrationReject
	// EvDelegationAck: a delegation ack (or nack) completed the sender
	// side of a transfer.
	EvDelegationAck
	// EvCapDestroy: a capability was destroyed and its region reclaimed.
	EvCapDestroy

	// NumEventKinds is the number of ledger event kinds.
	NumEventKinds = int(EvCapDestroy) + 1
)

var eventKindNames = [NumEventKinds]string{
	EvIntegrityFail:   "integrity-fail",
	EvAuthFail:        "auth-fail",
	EvReplayReject:    "replay-reject",
	EvReorderReject:   "reorder-reject",
	EvStaleCounter:    "stale-counter",
	EvMigrationSend:   "migration-send",
	EvMigrationAccept: "migration-accept",
	EvMigrationReject: "migration-reject",
	EvDelegationAck:   "delegation-ack",
	EvCapDestroy:      "cap-destroy",
}

func (k EventKind) String() string {
	if int(k) < NumEventKinds {
		return eventKindNames[k]
	}
	return "event?"
}

// SecEvent is one cycle-stamped entry in the security-event ledger, as
// an mmt-events/v1 line carries it.
type SecEvent struct {
	// Seq numbers events in record order across the whole sink, starting
	// at 1. Gaps at the front of a snapshot mean the bounded ledger
	// dropped the oldest entries.
	Seq  uint64    `json:"seq"`
	Proc string    `json:"proc"`
	Kind EventKind `json:"kind"`
	// Severity is Kind's severity, spelled out for a reader of the line.
	Severity Severity `json:"severity"`
	// Window is the sampling window index current on the recording node
	// when the event was recorded (0 when windowed sampling is off), so
	// ledger entries — and any droppage between them — are localizable
	// on the series timeline.
	Window uint64 `json:"window"`
	// Time is the recording node's simulated clock at the event.
	Time Usec `json:"time_us"`
	// Addr is the global-unique address (or region-derived address) the
	// event concerns; 0 when not applicable.
	Addr HexAddr `json:"addr"`
	// Detail is a short constant tag chosen at the record site.
	Detail string `json:"detail"`
	// Flight is the recording process's newest DefaultFlightCap spans,
	// frozen (copied oldest-first) at record time for kinds of severity
	// >= SevWarn; nil otherwise.
	Flight []FlightSpan `json:"flight,omitempty"`
}

// DefaultEventCap is the bound of the ledger ring buffer. It is a fixed
// constant (not tuned per run) so identical workloads keep identical
// ledgers.
const DefaultEventCap = 1024

// secLedger is a bounded ring of SecEvents owned by a Sink.
type secLedger struct {
	buf  []SecEvent
	head int    // index of the oldest entry once the ring is full
	seq  uint64 // total events ever recorded
}

func (l *secLedger) record(ev SecEvent) {
	l.seq++
	ev.Seq = l.seq
	if len(l.buf) < DefaultEventCap {
		l.buf = append(l.buf, ev)
		return
	}
	l.buf[l.head] = ev
	l.head++
	if l.head == len(l.buf) {
		l.head = 0
	}
}

// snapshot returns the retained events oldest-first. Flight rings are
// deep-copied so no mutable state is shared with the ledger (observers
// may poison what they get back; see observability tests).
func (l *secLedger) snapshot() []SecEvent {
	out := make([]SecEvent, 0, len(l.buf))
	out = append(out, l.buf[l.head:]...)
	out = append(out, l.buf[:l.head]...)
	for i := range out {
		if len(out[i].Flight) > 0 {
			out[i].Flight = append([]FlightSpan(nil), out[i].Flight...)
		}
	}
	return out
}

func (l *secLedger) reset() {
	l.buf = l.buf[:0]
	l.head = 0
	l.seq = 0
}

// dropped reports how many events fell off the bounded ring.
func (l *secLedger) dropped() uint64 { return l.seq - uint64(len(l.buf)) }

// Event appends one security event to the sink's ledger, stamped with
// the recording node's simulated time. The kind argument should be a
// constant, one per verdict branch; detail should be a constant tag so
// recording stays allocation-free. A nil probe records nothing.
func (p *Probe) Event(kind EventKind, at sim.Time, addr uint64, detail string) {
	if p == nil {
		return
	}
	p.sink.mu.Lock()
	ev := SecEvent{Proc: p.proc.name, Kind: kind, Severity: kind.Severity(), Time: Micros(at), Addr: HexAddr(addr), Detail: detail}
	if ps := p.proc.series; ps != nil {
		ev.Window = ps.curWindow
	}
	if kind.Severity() >= SevWarn {
		ev.Flight = p.sink.flightLocked(p.proc.name)
	}
	p.sink.ledger.record(ev)
	p.sink.mu.Unlock()
}

// flightLocked is the named process's flight recorder: its newest
// DefaultFlightCap spans, oldest first, read backwards off the span list
// (which holds every span in record order, merged ones included); nil
// when the process has recorded none.
func (s *Sink) flightLocked(proc string) []FlightSpan {
	var out []FlightSpan
	for i := len(s.events) - 1; i >= 0 && len(out) < DefaultFlightCap; i-- {
		if ev := &s.events[i]; ev.Proc == proc {
			out = append(out, FlightSpan{Phase: ev.Phase, Begin: Micros(ev.Begin), End: Micros(ev.End), Trace: ev.Trace, Span: ev.Span})
		}
	}
	slices.Reverse(out)
	return out
}

// SecEvents returns a copy of the retained security-event ledger,
// oldest first. A nil sink returns nil.
func (s *Sink) SecEvents() []SecEvent {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.snapshot()
}

// EventsDropped reports how many ledger entries were evicted by the
// ring bound. A nil sink reports 0.
func (s *Sink) EventsDropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.dropped()
}
