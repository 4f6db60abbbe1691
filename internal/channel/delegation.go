package channel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mmt/internal/core"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
)

// Delegation is the MMT closure delegation channel: message passing where
// the payload travels as whole MMT closures — ciphertext, tree nodes, MACs
// and sealed root — with no re-encryption and no extra copies (§IV-B2).
//
// Each side owns a pool of protection regions used as send and receive
// buffers (the paper's pinned sPMO pool). A message larger than one MMT's
// granularity is split across several closures; a smaller one still costs
// a whole closure — the constant-below-2M behaviour of Table IV.
type Delegation struct {
	common
	node *core.Node
	conn *core.Conn
	pool []int
	// inflight are MMTs in sending state awaiting acks, oldest first.
	inflight []inflightDeleg
	// stash holds messages popped while looking for a different kind.
	stash []netsim.Message
}

// inflightDeleg pairs an in-flight MMT with its open causal root span:
// the migration's end-to-end span stays open from send until the ack or
// nack completes it (drainAcks) or the sender gives up (AbandonInFlight).
type inflightDeleg struct {
	mmt *core.MMT
	sp  *trace.ActiveSpan // nil when tracing is disabled
}

// msgHeader frames one chunk inside a region's plaintext.
const (
	msgMagic      = 0x4753534D // "MSSG"
	msgHeaderSize = 16
)

// NewDelegation builds one side of a delegation channel. regions is the
// pool of free protection regions this side may use for buffers; it must
// be disjoint from regions used elsewhere on the node.
func NewDelegation(ep *netsim.Endpoint, peer string, prof *sim.Profile, node *core.Node, conn *core.Conn, regions []int) *Delegation {
	return &Delegation{
		common: common{ep: ep, peer: peer, prof: prof},
		node:   node,
		conn:   conn,
		pool:   append([]int(nil), regions...),
	}
}

// Capacity reports the payload bytes one closure carries.
func (c *Delegation) Capacity() int {
	return c.node.Controller().DataSize() - msgHeaderSize
}

// PoolFree reports the free buffer regions (tests).
func (c *Delegation) PoolFree() int { return len(c.pool) }

// popRegion takes a free region.
func (c *Delegation) popRegion() (int, error) {
	if len(c.pool) == 0 {
		return 0, fmt.Errorf("channel: delegation buffer pool exhausted")
	}
	r := c.pool[0]
	c.pool = c.pool[1:]
	return r, nil
}

// popKind returns the next pending message of the wanted kind, stashing
// others (acks and closures interleave on a bidirectional endpoint).
func (c *Delegation) popKind(kind netsim.Kind) (netsim.Message, bool) {
	for i, m := range c.stash {
		if m.Kind == kind {
			c.stash = append(c.stash[:i], c.stash[i+1:]...)
			return m, true
		}
	}
	for {
		m, ok := c.ep.Recv()
		if !ok {
			return netsim.Message{}, false
		}
		if m.Kind == kind {
			return m, true
		}
		c.stash = append(c.stash, m)
	}
}

// ack frames are 9 bytes: a status byte plus the global-unique address of
// the delegated MMT, so acks and in-flight delegations match even when an
// adversary re-orders traffic.
func encodeAck(ok bool, guaddr uint64) []byte {
	out := make([]byte, 9)
	if ok {
		out[0] = 1
	}
	binary.LittleEndian.PutUint64(out[1:], guaddr)
	return out
}

func decodeAck(b []byte) (ok bool, guaddr uint64, err error) {
	if len(b) != 9 {
		return false, 0, fmt.Errorf("channel: malformed ack (%d bytes)", len(b))
	}
	return b[0] == 1, binary.LittleEndian.Uint64(b[1:]), nil
}

// errUnknownAck reports an ack naming no in-flight delegation — stale, or
// its closure's address hint was destroyed in transit.
var errUnknownAck = errors.New("channel: ack for unknown delegation")

// drainAcks processes pending acks, completing in-flight delegations and
// recycling their regions. Acks are matched to in-flight MMTs by
// global-unique address; an ack that matches nothing (e.g. a nack for a
// closure whose header an attacker destroyed) is dropped like a lost
// packet.
func (c *Delegation) drainAcks() error {
	// A nack for one of our in-flight delegations (ErrClosed) outranks a
	// stale or unknown ack: the latter is delivery noise an adversary can
	// always inject, the former means our transfer definitively failed.
	var closedErr, otherErr error
	for {
		m, ok := c.popKind(netsim.KindControl)
		if !ok {
			if closedErr != nil {
				return closedErr
			}
			return otherErr
		}
		okByte, guaddr, err := decodeAck(m.Payload)
		if err != nil {
			if otherErr == nil {
				otherErr = err
			}
			continue
		}
		matched := false
		for i, d := range c.inflight {
			mmt := d.mmt
			if mmt.GUAddr() != guaddr {
				continue
			}
			c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
			// The ack closes the migration's causal root: the span now
			// encloses send, flight, remote accept and the ack's return trip.
			d.sp.End(c.ep.Clock().Now())
			region := mmt.Region()
			if err := mmt.CompleteSend(okByte); err != nil {
				return err
			}
			if okByte {
				c.probe.Event(trace.EvDelegationAck, c.ep.Clock().Now(), guaddr, "delegation: transfer acknowledged")
			} else {
				c.probe.Event(trace.EvDelegationAck, c.ep.Clock().Now(), guaddr, "delegation: transfer nacked")
			}
			if mmt.State() == core.StateInvalid {
				c.pool = append(c.pool, region)
			}
			if !okByte && closedErr == nil {
				closedErr = ErrClosed
			}
			matched = true
			break
		}
		if !matched && otherErr == nil {
			otherErr = fmt.Errorf("%w: %#x", errUnknownAck, guaddr)
		}
	}
}

// Send transfers payload to the peer as one or more ownership-transfer
// closures. The per-chunk cost is a remote write of the whole closure
// (data + metadata) plus the fixed seal/ack cost — never encryption.
func (c *Delegation) Send(payload []byte) error {
	if err := c.drainAcks(); err != nil {
		return err
	}
	capacity := c.Capacity()
	total := (len(payload) + capacity - 1) / capacity
	if total == 0 {
		total = 1
	}
	for i := 0; i < total; i++ {
		lo := i * capacity
		hi := lo + capacity
		if hi > len(payload) {
			hi = len(payload)
		}
		if err := c.sendChunk(payload[lo:hi], i, total); err != nil {
			return err
		}
	}
	c.stats.Messages++
	c.stats.Bytes += len(payload)
	return nil
}

func (c *Delegation) sendChunk(chunk []byte, idx, total int) error {
	region, err := c.popRegion()
	if err != nil {
		return err
	}
	// The application produces its message directly into the secure buffer;
	// that production is not part of the transfer cost (unlike the secure
	// channel's extra copies, which exist only to cross the enclave
	// boundary).
	ctl := c.node.Controller()
	base := ctl.Memory().RegionBase(region)
	header := make([]byte, msgHeaderSize)
	binary.LittleEndian.PutUint32(header[0:], msgMagic)
	binary.LittleEndian.PutUint32(header[4:], uint32(idx))
	binary.LittleEndian.PutUint32(header[8:], uint32(total))
	binary.LittleEndian.PutUint32(header[12:], uint32(len(chunk)))
	ctl.Memory().Write(base, header)
	ctl.Memory().Write(base+msgHeaderSize, chunk)

	mmt, err := c.node.Acquire(region, c.conn.Key(), c.conn.NextCounter())
	if err != nil {
		return err
	}
	closure, err := mmt.BeginSend(c.conn, core.OwnershipTransfer)
	if err != nil {
		if errors.Is(err, core.ErrStaleCounter) {
			c.probe.Event(trace.EvStaleCounter, c.ep.Clock().Now(), mmt.GUAddr(), "delegation: send aborted before seal")
		}
		return err
	}
	wire := closure.Encode()
	// Root of this migration's causal trace: the span stays open until the
	// peer's ack or nack completes the transfer (drainAcks / Abandon).
	root := c.probe.BeginSpan(c.probe.NewTrace(), trace.PhaseSend, c.ep.Clock().Now())
	c.probe.Count(trace.CtrClosuresSent, 1)
	c.probe.Count(trace.CtrClosureEncodeBytes, uint64(len(wire)))
	c.charge(&c.stats.RemoteWrite, trace.PhaseDMA, c.prof.RemoteWriteCost(len(wire)))
	c.charge(&c.stats.Delegation, trace.PhaseDelegation, c.prof.DelegationFixed)
	c.probe.RecordOp(trace.OpMigrationSend,
		c.prof.RemoteWriteCost(len(wire))+c.prof.DelegationFixed)
	root.AddCycles(c.prof.RemoteWriteCost(len(wire)) + c.prof.DelegationFixed)
	c.inflight = append(c.inflight, inflightDeleg{mmt: mmt, sp: root})
	c.ep.SendOwned(c.peer, netsim.KindClosure, wire, root.Context())
	c.probe.Event(trace.EvMigrationSend, c.ep.Clock().Now(), mmt.GUAddr(), "delegation: closure on wire")
	return nil
}

// Received is one accepted closure, still resident in secure memory.
type Received struct {
	ch     *Delegation
	mmt    *core.MMT
	Index  int
	Total  int
	Length int
}

// Payload reads the chunk's bytes out of secure memory. The reads verify
// and decrypt as usual but are not charged to the simulated clock: payload
// consumption is application work that every transfer mode performs and
// none of the channels accounts for.
func (r *Received) Payload() ([]byte, error) {
	ctl := r.ch.node.Controller()
	ctl.SetQuiet(true)
	defer ctl.SetQuiet(false)
	raw, err := r.mmt.ReadBytes(0, msgHeaderSize+r.Length)
	if err != nil {
		return nil, err
	}
	return raw[msgHeaderSize:], nil
}

// Release reclaims the buffer region for future receives.
func (r *Received) Release() error {
	region := r.mmt.Region()
	if err := r.mmt.Reclaim(); err != nil {
		return err
	}
	r.ch.pool = append(r.ch.pool, region)
	return nil
}

// Recv accepts the next inbound closure: unseal, freshness and order
// checks, full verification, install, framing-header check — then acks
// the sender. A rejected closure (tampered, replayed, re-ordered, or
// framed with an impossible header) returns the protocol error and nacks
// the sender, whose buffer returns to valid for retry.
func (c *Delegation) Recv() (*Received, error) {
	m, ok := c.popKind(netsim.KindClosure)
	if !ok {
		return nil, ErrEmpty
	}
	// The accept is a child of the migration's root span carried in the
	// message metadata; if the sender was untraced, the receiver roots a
	// trace of its own so local accounting survives.
	ctx := m.Trace
	if !ctx.Valid() {
		ctx = c.probe.NewTrace()
	}
	sp := c.probe.BeginSpan(ctx, trace.PhaseRecv, c.ep.Clock().Now())
	c.probe.Count(trace.CtrClosureDecodeBytes, uint64(len(m.Payload)))
	region, err := c.popRegion()
	if err != nil {
		sp.End(c.ep.Clock().Now())
		return nil, err
	}
	mmt, err := c.node.Expect(region, c.conn)
	if err != nil {
		sp.End(c.ep.Clock().Now())
		return nil, err
	}
	// The controller records the functional install (tree + line-MAC
	// verification) as a child of the accept span.
	ctl := c.node.Controller()
	ctl.SetCausal(sp.Context())
	err = mmt.Accept(c.conn, m.Payload)
	ctl.SetCausal(trace.Context{})
	// A refused closure leaves the buffer waiting; one installed under a
	// framing header that fails its checks is reclaimed.
	got, free := (*Received)(nil), mmt.Cancel
	if err == nil {
		got, free = &Received{ch: c, mmt: mmt}, mmt.Reclaim
		err = got.readHeader()
	}
	if err != nil {
		hint, named := core.RecordReject(c.probe, c.ep.Clock().Now(), err, m.Payload, "delegation: ", "closure")
		// Free the buffer and nack the specific delegation.
		if ferr := free(); ferr != nil {
			sp.End(c.ep.Clock().Now())
			return nil, ferr
		}
		c.pool = append(c.pool, region)
		if named {
			// The nack rides the migration's root context so its wire flight
			// lands in the same trace as the failed transfer.
			c.ep.SendOwned(c.peer, netsim.KindControl, encodeAck(false, hint), ctx)
		}
		sp.End(c.ep.Clock().Now())
		return nil, err
	}
	// Ack (Figure 6 step 4): a tiny control message naming the delegation.
	c.probe.Count(trace.CtrClosuresAccepted, 1)
	c.charge(&c.stats.Delegation, trace.PhaseDelegation, c.prof.RemoteWriteCost(9))
	c.probe.RecordOp(trace.OpMigrationRecv, c.prof.RemoteWriteCost(9))
	sp.AddCycles(c.prof.RemoteWriteCost(9))
	c.ep.SendOwned(c.peer, netsim.KindControl, encodeAck(true, mmt.GUAddr()), ctx)
	c.probe.Event(trace.EvMigrationAccept, c.ep.Clock().Now(), mmt.GUAddr(), "delegation: closure installed")
	sp.End(c.ep.Clock().Now())
	return got, nil
}

// readHeader fills Index, Total and Length from the framing header at the
// start of the installed region, and refuses a header no sender builds.
// The fields are the word of a peer that merely holds the connection key:
// Length sizes Payload's read, so it is bounded by what one closure
// carries before the transfer is acknowledged. Like Payload, the read is
// not charged.
func (r *Received) readHeader() error {
	ctl := r.ch.node.Controller()
	ctl.SetQuiet(true)
	hdr, err := r.mmt.ReadBytes(0, msgHeaderSize)
	ctl.SetQuiet(false)
	if err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr) != msgMagic {
		return fmt.Errorf("%w: not a framed message", core.ErrBadClosure)
	}
	index, total, length := binary.LittleEndian.Uint32(hdr[4:]), binary.LittleEndian.Uint32(hdr[8:]), binary.LittleEndian.Uint32(hdr[12:])
	if index >= total {
		return fmt.Errorf("%w: chunk %d of %d", core.ErrBadClosure, index, total)
	}
	if uint64(length) > uint64(r.ch.Capacity()) {
		return fmt.Errorf("%w: chunk of %d bytes, a closure carries %d", core.ErrBadClosure, length, r.ch.Capacity())
	}
	r.Index, r.Total, r.Length = int(index), int(total), int(length)
	return nil
}

// RecvMessage assembles a whole multi-chunk message, releasing the buffer
// regions as it goes.
func (c *Delegation) RecvMessage() ([]byte, error) {
	var out []byte
	for {
		r, err := c.Recv()
		if err != nil {
			return nil, err
		}
		p, err := r.Payload()
		if err != nil {
			return nil, err
		}
		out = append(out, p...)
		done := r.Index == r.Total-1
		if err := r.Release(); err != nil {
			return nil, err
		}
		if done {
			return out, nil
		}
	}
}

// InFlight reports delegations awaiting acks (tests).
func (c *Delegation) InFlight() int { return len(c.inflight) }

// AbandonInFlight gives up on every delegation still awaiting an ack: the
// local timeout path of a reliable sender. Each sending MMT returns to
// valid and is then reclaimed, freeing its buffer for the retry. The data
// lives on in the caller's retry payload; the abandoned closures, if they
// ever arrive, fail the receiver's freshness check.
func (c *Delegation) AbandonInFlight() error {
	for _, d := range c.inflight {
		// Close the migration's causal root at the give-up instant.
		d.sp.End(c.ep.Clock().Now())
		region := d.mmt.Region()
		if err := d.mmt.CompleteSend(false); err != nil {
			return err
		}
		if err := d.mmt.Reclaim(); err != nil {
			return err
		}
		c.pool = append(c.pool, region)
	}
	c.inflight = nil
	return nil
}

// DrainAcks exposes ack processing for callers that interleave sends and
// receives manually.
func (c *Delegation) DrainAcks() error { return c.drainAcks() }
