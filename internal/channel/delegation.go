package channel

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"mmt/internal/core"
	"mmt/internal/netsim"
	"mmt/internal/sim"
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
	*Closures[*core.MMT]
	pool []int
	// stash holds messages popped while looking for a different kind.
	stash []netsim.Message
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
		Closures: NewClosures[*core.MMT](ep, peer, prof, node, conn, nil, "delegation: "),
		pool:     append([]int(nil), regions...),
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

// DrainAcks processes pending acks, completing in-flight delegations and
// recycling their regions. An ack that matches nothing (e.g. a nack for a
// closure whose header an attacker destroyed) is dropped like a lost
// packet. A nack of ours (ErrClosed) outranks a stale or unknown ack: that
// is noise an adversary can always inject, a nack a transfer that failed.
func (c *Delegation) DrainAcks() error {
	var closedErr, otherErr error
	for {
		m, ok := c.popKind(netsim.KindControl)
		if !ok {
			return cmp.Or(closedErr, otherErr)
		}
		mmt, acked, err := c.Complete(m.Payload)
		if errors.Is(err, errBadAck) || errors.Is(err, errUnknownAck) {
			otherErr = cmp.Or(otherErr, err)
			continue
		}
		if err != nil {
			return err
		}
		if mmt.State() == core.StateInvalid {
			c.pool = append(c.pool, mmt.Region())
		}
		if !acked {
			closedErr = ErrClosed
		}
	}
}

// Send transfers payload to the peer as one or more ownership-transfer
// closures. The per-chunk cost is a remote write of the whole closure
// (data + metadata) plus the fixed seal/ack cost — never encryption.
func (c *Delegation) Send(payload []byte) error {
	if err := c.DrainAcks(); err != nil {
		return err
	}
	capacity := c.Capacity()
	total := max(1, (len(payload)+capacity-1)/capacity)
	for i := 0; i < total; i++ {
		lo := i * capacity
		if err := c.sendChunk(payload[lo:min(lo+capacity, len(payload))], i, total); err != nil {
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
	closure, err := c.Seal(mmt, core.OwnershipTransfer, "send")
	if err != nil {
		return err
	}
	c.Closures.Send(mmt, closure, mmt)
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
	region, err := c.popRegion()
	if err != nil {
		return nil, err
	}
	mmt, err := c.node.Expect(region, c.conn)
	if err != nil {
		return nil, err
	}
	got := &Received{ch: c, mmt: mmt}
	// A refused closure leaves the buffer waiting; one installed under a
	// framing header that fails its checks is reclaimed.
	undo := func() error {
		if mmt.State() == core.StateValid {
			return got.Release()
		}
		c.pool = append(c.pool, region)
		return mmt.Cancel()
	}
	if err := c.Accept(mmt, m, m.Payload, got.readHeader, undo); err != nil {
		return nil, err
	}
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

// AbandonInFlight gives up on every delegation still awaiting an ack: the
// local timeout path of a reliable sender. Each sending MMT returns to
// valid and is then reclaimed, freeing its buffer for the retry. The data
// lives on in the caller's retry payload; the abandoned closures, if they
// ever arrive, fail the receiver's freshness check.
func (c *Delegation) AbandonInFlight() error {
	for _, d := range c.inflight {
		// Close the migration's causal root at the give-up instant.
		d.sp.End(c.ep.Clock().Now())
		if err := d.mmt.CompleteSend(false); err != nil {
			return err
		}
		if err := d.mmt.Reclaim(); err != nil {
			return err
		}
		c.pool = append(c.pool, d.mmt.Region())
	}
	c.inflight = nil
	return nil
}
