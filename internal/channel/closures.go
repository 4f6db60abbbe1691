package channel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mmt/internal/core"
	"mmt/internal/cursor"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
)

// Closures is one end of the closure delegation protocol (§IV-B2,
// Figure 6 steps 3-4): it sends an MMT's closure as one frame, accepts an
// inbound closure and acks or nacks it, and completes a send when its ack
// arrives. Delegation runs on it with T = *core.MMT, each monitor
// connection with T = its PMO; each keeps its own receive loop and its
// policy for acks that name nothing.
//
// Every frame is route ‖ body. The route tells the peer's dispatcher whose
// body it is (Delegation's is empty). A body is a closure's wire form or
// a 9-byte ack: status (1 ack, 0 nack), then the delegated MMT's
// global-unique address, little-endian.
type Closures[T any] struct {
	common
	node     *core.Node
	conn     *core.Conn
	route    []byte
	who      string    // prefixes every ledger detail
	inflight []sent[T] // awaiting their ack, oldest first
}

// sent is one closure on the wire: its MMT, the migration's root span
// (open until the ack; nil untraced) and the caller's reference.
type sent[T any] struct {
	mmt *core.MMT
	sp  *trace.ActiveSpan
	ref T
}

// Ack errors: the ack is dropped and nothing changes.
var (
	errBadAck     = errors.New("channel: malformed ack")
	errUnknownAck = errors.New("channel: ack for unknown delegation")
)

// NewClosures builds one end of a closure connection over conn, sending
// to peer with route before every frame.
func NewClosures[T any](ep *netsim.Endpoint, peer string, prof *sim.Profile, node *core.Node, conn *core.Conn, route []byte, who string) *Closures[T] {
	return &Closures[T]{common: common{ep: ep, peer: peer, prof: prof}, node: node, conn: conn, route: route, who: who}
}

// Conn exposes the connection's key and replay and re-order floors.
func (e *Closures[T]) Conn() *core.Conn { return e.conn }

// InFlight reports the sends awaiting an ack.
func (e *Closures[T]) InFlight() int { return len(e.inflight) }

// Seal moves m to sending and builds its closure. A send the connection's
// counter floor has overtaken is ledgered as "<what> aborted before seal".
func (e *Closures[T]) Seal(m *core.MMT, mode core.TransferMode, what string) (*core.Closure, error) {
	closure, err := m.BeginSend(e.conn, mode)
	if errors.Is(err, core.ErrStaleCounter) {
		e.probe.Event(trace.EvStaleCounter, e.ep.Clock().Now(), m.GUAddr(), e.who+what+" aborted before seal")
	}
	return closure, err
}

// Send puts a sealed closure on the wire, costing a remote write of the
// frame plus the fixed seal/ack cost — never encryption — and holds m in
// flight under ref. The send roots the migration's causal trace.
func (e *Closures[T]) Send(m *core.MMT, closure *core.Closure, ref T) {
	frame := closureFrame(e.route, closure)
	root := e.probe.BeginSpan(e.probe.NewTrace(), trace.PhaseSend, e.ep.Clock().Now())
	e.probe.Count(trace.CtrClosuresSent, 1)
	e.probe.Count(trace.CtrClosureEncodeBytes, uint64(len(frame)))
	dma := e.prof.RemoteWriteCost(len(frame))
	e.charge(&e.stats.RemoteWrite, trace.PhaseDMA, dma)
	e.charge(&e.stats.Delegation, trace.PhaseDelegation, e.prof.DelegationFixed)
	e.probe.RecordOp(trace.OpMigrationSend, dma+e.prof.DelegationFixed, 1)
	root.AddCycles(dma + e.prof.DelegationFixed)
	e.inflight = append(e.inflight, sent[T]{m, root, ref})
	e.ep.SendOwned(e.peer, netsim.KindClosure, frame, root.Context())
	e.probe.Event(trace.EvMigrationSend, e.ep.Clock().Now(), m.GUAddr(), e.who+"closure on wire")
}

// Accept installs body, the closure msg carries past its route, into the
// waiting m, runs the caller's check on the installed region, and acks.
// A reject is ledgered, undo frees what the caller set aside, and the
// delegation the closure names, if any, is nacked for free. The accept
// is a child of the root span carried in msg (or of a local root).
func (e *Closures[T]) Accept(m *core.MMT, msg netsim.Message, body []byte, check, undo func() error) error {
	ctx := msg.Trace
	if !ctx.Valid() {
		ctx = e.probe.NewTrace()
	}
	sp := e.probe.BeginSpan(ctx, trace.PhaseRecv, e.ep.Clock().Now())
	defer func() { sp.End(e.ep.Clock().Now()) }()
	e.probe.Count(trace.CtrClosureDecodeBytes, uint64(len(msg.Payload)))
	// The controller records the install as a child of the accept span.
	ctl := e.node.Controller()
	ctl.SetCausal(sp.Context())
	err := m.Accept(e.conn, body)
	ctl.SetCausal(trace.Context{})
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		hint, named := core.RecordReject(e.probe, e.ep.Clock().Now(), err, body, e.who, "closure")
		if undo != nil {
			if uerr := undo(); uerr != nil {
				return uerr
			}
		}
		if named {
			e.ep.SendOwned(e.peer, netsim.KindControl, ackFrame(e.route, false, hint), ctx)
		}
		return err
	}
	e.probe.Count(trace.CtrClosuresAccepted, 1)
	ack := ackFrame(e.route, true, m.GUAddr())
	cost := e.prof.RemoteWriteCost(len(ack))
	e.charge(&e.stats.Delegation, trace.PhaseDelegation, cost)
	e.probe.RecordOp(trace.OpMigrationRecv, cost, 1)
	sp.AddCycles(cost)
	e.ep.SendOwned(e.peer, netsim.KindControl, ack, ctx)
	e.probe.Event(trace.EvMigrationAccept, e.ep.Clock().Now(), m.GUAddr(), e.who+"closure installed")
	return nil
}

// Refuse nacks, for free, the delegation a closure body names, without a
// verdict: the receiver had no buffer to take it.
func (e *Closures[T]) Refuse(msg netsim.Message, body []byte) {
	if c, err := core.DecodeClosure(body); err == nil {
		e.ep.SendOwned(e.peer, netsim.KindControl, ackFrame(e.route, false, c.GUAddrHint), msg.Trace)
	}
}

// Complete completes the in-flight send an ack body names by address, so
// a re-ordered ack cannot complete the wrong transfer: an ack ends an
// ownership transfer's MMT and returns a copy's to valid, a nack returns
// either to valid. It returns the send's ref and whether it was acked. A
// malformed or unknown ack returns an error and changes nothing.
func (e *Closures[T]) Complete(body []byte) (ref T, ok bool, err error) {
	ok, guaddr, err := readAck(body)
	if err != nil {
		return ref, false, err
	}
	for i, d := range e.inflight {
		if d.mmt.GUAddr() != guaddr {
			continue
		}
		e.inflight = append(e.inflight[:i], e.inflight[i+1:]...)
		// The root span now encloses send, flight, accept and the ack.
		d.sp.End(e.ep.Clock().Now())
		if err := d.mmt.CompleteSend(ok); err != nil {
			return ref, false, err
		}
		detail := "transfer nacked"
		if ok {
			detail = "transfer acknowledged"
		}
		e.probe.Event(trace.EvDelegationAck, e.ep.Clock().Now(), guaddr, e.who+detail)
		return d.ref, ok, nil
	}
	return ref, false, fmt.Errorf("%w: %#x", errUnknownAck, guaddr)
}

// closureFrame is route ‖ the closure's wire form, encoded in place: the
// region's bytes are copied once on their way to the network. It reserves
// the route and the metadata; the data chunk grows it (see AppendTo).
func closureFrame(route []byte, closure *core.Closure) []byte {
	w := cursor.Writer{Buf: make([]byte, 0, len(route)+closure.MetadataSize())}
	w.Raw(route)
	closure.AppendTo(&w)
	return w.Buf
}

// ackFrame is route ‖ an ack or nack naming guaddr.
func ackFrame(route []byte, ok bool, guaddr uint64) []byte {
	out := make([]byte, len(route)+9)
	n := copy(out, route)
	if ok {
		out[n] = 1
	}
	binary.LittleEndian.PutUint64(out[n+1:], guaddr)
	return out
}

// readAck decodes an ack body.
func readAck(b []byte) (ok bool, guaddr uint64, err error) {
	if len(b) != 9 || b[0] > 1 {
		return false, 0, fmt.Errorf("%w (%d bytes)", errBadAck, len(b))
	}
	return b[0] == 1, binary.LittleEndian.Uint64(b[1:]), nil
}
