// Package netsim models the untrusted interconnect between MMT nodes and
// the pci-connector device of §V-A1: point-to-point message delivery with
// configurable propagation delay, plus interposers that let tests and the
// attack demos act as the man-in-the-middle the threat model assumes
// (spying, tampering, replaying and re-ordering packets).
//
// Timing: the sender's NIC/DMA serialization cost is charged by the
// channel layer from the sim.Profile; the network itself adds only the
// propagation delay. A receiver cannot observe a message before its
// simulated arrival instant (Clock.SyncTo).
package netsim

import (
	"fmt"
	"sync"

	"mmt/internal/sim"
	"mmt/internal/trace"
)

// Kind tags the payload type of a message.
type Kind uint8

const (
	// KindData is a raw remote write (non-secure or secure-channel bytes).
	KindData Kind = iota
	// KindClosure is an encoded MMT closure delegation.
	KindClosure
	// KindControl is protocol control traffic (acks, key exchange).
	KindControl
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindClosure:
		return "closure"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is one packet on the interconnect.
type Message struct {
	From, To string
	Kind     Kind
	// Payload belongs to the message: in flight it never aliases memory
	// its sender can still write. The network, interposers and the
	// receiver may therefore keep and read it for as long as they like —
	// and an adversary may scribble on it — without reaching into the
	// sender's state. Send meets the rule by copying the caller's buffer,
	// SendOwned by taking the buffer over.
	Payload []byte
	// ArriveAt is the simulated instant the message becomes visible at the
	// destination.
	ArriveAt sim.Time
	// Trace is causal observability metadata riding ALONGSIDE the payload,
	// never inside it: no MAC, seal or signature covers it, so tracing
	// cannot perturb the security protocol — and, symmetrically, the
	// context is untrusted wire state an adversary may tamper with, which
	// at worst mislabels a span. A zero Context means the send was
	// untraced.
	Trace trace.Context
	// SentAt is the sender-clock instant the message went on the wire
	// (ArriveAt minus the propagation delay); the receiving endpoint
	// records the [SentAt, ArriveAt] flight as a PhaseWire causal span.
	SentAt sim.Time
}

// Interposer sits on the wire. For each sent message it returns the
// messages actually delivered: unchanged (pass-through), modified
// (tampering), duplicated (replay), reordered, or none (drop). The network
// is untrusted, so interposers receive the real payload bytes.
type Interposer interface {
	Intercept(m Message) []Message
}

// PassThrough delivers every message unchanged.
type PassThrough struct{}

// Intercept implements Interposer.
func (PassThrough) Intercept(m Message) []Message { return []Message{m} }

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	name  string
	clock *sim.Clock
	net   *Network
	inbox []Message
	probe *trace.Probe // nil = tracing disabled
}

// SetTrace attaches a trace probe counting outbound wire messages and
// bytes per Kind — exactly the traffic shape a wire adversary observes.
// Nil disables tracing.
func (e *Endpoint) SetTrace(p *trace.Probe) { e.probe = p }

// wireCounters maps a Kind to its (messages, bytes) trace counters.
func wireCounters(k Kind) (msgs, bytes trace.Counter, ok bool) {
	switch k {
	case KindData:
		return trace.CtrWireMsgsData, trace.CtrWireBytesData, true
	case KindClosure:
		return trace.CtrWireMsgsClosure, trace.CtrWireBytesClosure, true
	case KindControl:
		return trace.CtrWireMsgsControl, trace.CtrWireBytesControl, true
	default:
		return 0, 0, false
	}
}

// Network is the shared untrusted interconnect.
type Network struct {
	mu         sync.Mutex
	endpoints  map[string]*Endpoint
	interposer Interposer
	// Latency is the one-way propagation delay (Figure 10b sweeps this).
	Latency sim.Time
	// delivered counts messages placed into inboxes (stats for tests).
	delivered int
}

// NewNetwork builds a network with the given propagation latency.
func NewNetwork(latency sim.Time) *Network {
	return &Network{endpoints: make(map[string]*Endpoint), interposer: PassThrough{}, Latency: latency}
}

// SetInterposer installs the man-in-the-middle. A nil interposer restores
// pass-through delivery.
func (n *Network) SetInterposer(i Interposer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if i == nil {
		i = PassThrough{}
	}
	n.interposer = i
}

// Attach registers a named endpoint whose receive times follow clock.
func (n *Network) Attach(name string, clock *sim.Clock) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.endpoints[name]; dup {
		return nil, fmt.Errorf("netsim: endpoint %q already attached", name)
	}
	if clock == nil {
		clock = sim.NewClock(0)
	}
	ep := &Endpoint{name: name, clock: clock, net: n}
	n.endpoints[name] = ep
	return ep, nil
}

// Name reports the endpoint's network name.
func (e *Endpoint) Name() string { return e.name }

// Clock reports the endpoint's clock.
func (e *Endpoint) Clock() *sim.Clock { return e.clock }

// Send puts a message on the wire, copying payload first: the caller
// keeps its buffer and may reuse it at once. The interposer transforms
// the delivery, and each resulting message lands in its destination inbox
// stamped with sender-time + propagation latency. Unknown destinations
// are silently dropped, as on a real fabric.
func (e *Endpoint) Send(to string, kind Kind, payload []byte) {
	e.SendOwned(to, kind, append([]byte(nil), payload...), trace.Context{})
}

// SendOwned is Send without the copy, for a payload the caller built for
// this message and hands over: the caller must not touch payload again.
// ctx is a causal trace context attached as metadata beside the payload
// (see Message.Trace); a zero context is an untraced send.
func (e *Endpoint) SendOwned(to string, kind Kind, payload []byte, ctx trace.Context) {
	if msgs, bytes, ok := wireCounters(kind); ok {
		e.probe.Count(msgs, 1)
		e.probe.Count(bytes, uint64(len(payload)))
	}
	m := Message{
		From:     e.name,
		To:       to,
		Kind:     kind,
		Payload:  payload,
		SentAt:   e.clock.Now(),
		Trace:    ctx,
		ArriveAt: e.clock.Now() + e.net.Latency,
	}
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, out := range n.interposer.Intercept(m) {
		if dst, ok := n.endpoints[out.To]; ok {
			dst.inbox = append(dst.inbox, out)
			n.delivered++
		}
	}
}

// Recv pops the oldest pending message, advancing the receiver's clock to
// the arrival instant. ok is false when the inbox is empty. The wire wait
// — how far SyncTo moved the receiver's clock — is recorded as an
// OpRemoteRead latency sample: it is the receive-side charge point the
// propagation delay mirrors into.
func (e *Endpoint) Recv() (Message, bool) {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(e.inbox) == 0 {
		return Message{}, false
	}
	m := e.inbox[0]
	// The backing array outlives the pop (the reslice still points into
	// it), so clear the slot: a 2.4 MB closure frame must not stay
	// reachable until the next message to this endpoint reallocates it.
	e.inbox[0] = Message{}
	e.inbox = e.inbox[1:]
	if wait := m.ArriveAt - e.clock.Now(); wait > 0 {
		e.probe.RecordOp(trace.OpRemoteRead, sim.Cycles(float64(wait)*e.clock.Freq()), 1)
	}
	e.clock.SyncTo(m.ArriveAt)
	// Record the flight as a causal wire span: a child of the sender's
	// span, zero cycles (propagation delay is wait, not work). The
	// delivered context is NOT re-parented — protocol spans recorded from
	// m.Trace stay direct children of the sender's span, keeping the tree
	// flat and interval containment trivially true.
	if m.Trace.Valid() {
		e.probe.CausalSpan(m.Trace, trace.PhaseWire, m.SentAt, m.ArriveAt, 0)
	}
	return m, true
}

// Pending reports the number of undelivered messages in the inbox.
func (e *Endpoint) Pending() int {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	return len(e.inbox)
}

// Delivered reports the total messages delivered on the network.
func (n *Network) Delivered() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered
}

// PendingTotal reports the number of undelivered messages across every
// endpoint. The snapshot layer uses it as its quiesce check: a cluster
// with traffic still in flight has state on the wire that no node-local
// enumeration can capture, so Save/Checkpoint refuse until it drains.
func (n *Network) PendingTotal() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, ep := range n.endpoints {
		total += len(ep.inbox)
	}
	return total
}
