package mmt

import (
	"errors"
	"fmt"

	"mmt/internal/core"
	"mmt/internal/monitor"
)

// Link is an attested, keyed connection between two enclaves on different
// machines — the result of the Figure 6 connection setup. Buffers created
// on a link can be delegated across it.
type Link struct {
	cluster *Cluster
	id      string
	a, b    *Enclave
}

// Connect establishes a link between two enclaves: the monitors exchange
// attestation reports over the untrusted network, agree on an MMT key, and
// arm receive buffers on both sides.
func (c *Cluster) Connect(a, b *Enclave) (*Link, error) {
	if a.machine == b.machine {
		return nil, fmt.Errorf("mmt: both enclaves are on %q; links are cross-machine", a.machine.name)
	}
	id, err := monitor.Connect(a.machine.mon, a.id, b.machine.mon, b.id, 0)
	if err != nil {
		return nil, err
	}
	l := &Link{cluster: c, id: id, a: a, b: b}
	c.registerLink(l)
	return l, nil
}

// registerLink records a link for deterministic snapshot enumeration and
// Cluster.Link lookup. Shared by Connect and snapshot restore.
func (c *Cluster) registerLink(l *Link) {
	c.links[l.id] = l
	c.linkOrder = append(c.linkOrder, l.id)
	c.markStructural()
}

// Link looks up a link by its connection id (as reported by Link.ID and
// listed in a snapshot Manifest).
func (c *Cluster) Link(id string) (*Link, bool) {
	l, ok := c.links[id]
	return l, ok
}

// Links lists the cluster's links in the order they were connected.
func (c *Cluster) Links() []*Link {
	out := make([]*Link, 0, len(c.linkOrder))
	for _, id := range c.linkOrder {
		out = append(out, c.links[id])
	}
	return out
}

// ID reports the connection id (same on both monitors).
func (l *Link) ID() string { return l.id }

// Sender and Receiver report the link's enclaves in Connect order. The
// link itself is symmetric — delegation may flow either way — the names
// follow the common producer/consumer setup of the package tour.
func (l *Link) Sender() *Enclave { return l.a }

// Receiver reports the second enclave passed to Connect.
func (l *Link) Receiver() *Enclave { return l.b }

// Buffer is a secure memory buffer: one PMO with a live MMT, readable and
// writable at byte granularity through the protection engine.
type Buffer struct {
	machine *Machine
	owner   monitor.EnclaveID
	cap     monitor.CapID
}

// Link errors.
var (
	ErrNotOnLink = errors.New("mmt: enclave is not an endpoint of this link")
	ErrNoPending = errors.New("mmt: no delegation pending on this link")
)

// endpointOf maps an enclave to its link connection record.
func (l *Link) endpointOf(e *Enclave) (*monitor.Connection, error) {
	if e != l.a && e != l.b {
		return nil, ErrNotOnLink
	}
	conn, ok := e.machine.mon.Connection(l.id)
	if !ok {
		return nil, fmt.Errorf("mmt: link %s missing on %s", l.id, e.machine.name)
	}
	return conn, nil
}

// ends resolves the endpoint that owns b and the endpoint across the link.
func (l *Link) ends(b *Buffer) (from, to *Enclave, err error) {
	switch {
	case b.machine == l.a.machine && b.owner == l.a.id:
		return l.a, l.b, nil
	case b.machine == l.b.machine && b.owner == l.b.id:
		return l.b, l.a, nil
	}
	return nil, nil, ErrNotOnLink
}

// NewBuffer allocates a secure buffer owned by e, keyed to this link so it
// can later be delegated across it. The buffer covers one MMT granule
// (Cluster.Geometry().DataSize() bytes).
func (l *Link) NewBuffer(e *Enclave) (*Buffer, error) {
	conn, err := l.endpointOf(e)
	if err != nil {
		return nil, err
	}
	p, err := e.machine.mon.AllocPMO(e.id)
	if err != nil {
		return nil, err
	}
	if _, err := e.machine.mon.AcquireMMT(e.id, p.Cap, conn.Conn().Key(), conn.Conn().NextCounter()); err != nil {
		return nil, err
	}
	l.cluster.markStructural()
	return &Buffer{machine: e.machine, owner: e.id, cap: p.Cap}, nil
}

// Cap reports the buffer's monitor capability id (stable across snapshot
// save/load; Enclave.Buffer resolves it back to a Buffer).
func (b *Buffer) Cap() uint64 { return uint64(b.cap) }

// Buffer rebuilds a Buffer handle from a capability id owned by this
// enclave — the way to reclaim buffer handles after mmt.Load or mmt.Open,
// which restore monitor state but not host-side wrapper objects.
func (e *Enclave) Buffer(cap uint64) (*Buffer, error) {
	if _, err := e.machine.mon.PMOOf(e.id, monitor.CapID(cap)); err != nil {
		return nil, err
	}
	return &Buffer{machine: e.machine, owner: e.id, cap: monitor.CapID(cap)}, nil
}

// Buffers lists the capability ids of every buffer the enclave currently
// owns, in ascending id order.
func (e *Enclave) Buffers() []uint64 {
	caps := e.machine.mon.CapsOf(e.id)
	out := make([]uint64, len(caps))
	for i, c := range caps {
		out[i] = uint64(c)
	}
	return out
}

// Size reports the buffer's capacity in bytes.
func (b *Buffer) Size() int {
	return b.machine.mon.Node().Controller().DataSize()
}

// mmtOf resolves the buffer's live MMT.
func (b *Buffer) mmtOf() (*monitor.PMO, error) {
	return b.machine.mon.PMOOf(b.owner, b.cap)
}

// Write stores p at byte offset off, read-modify-writing partial lines
// through the protection engine.
func (b *Buffer) Write(off int, p []byte) error {
	pmo, err := b.mmtOf()
	if err != nil {
		return err
	}
	m := pmo.MMT()
	if m == nil {
		return fmt.Errorf("mmt: buffer has no live MMT")
	}
	if off < 0 || len(p) > b.Size()-off {
		return fmt.Errorf("mmt: write [%d,+%d) outside buffer of %d bytes", off, len(p), b.Size())
	}
	return m.WriteAt(off, p)
}

// Read loads n bytes at byte offset off.
func (b *Buffer) Read(off, n int) ([]byte, error) {
	pmo, err := b.mmtOf()
	if err != nil {
		return nil, err
	}
	m := pmo.MMT()
	if m == nil {
		return nil, fmt.Errorf("mmt: buffer has no live MMT")
	}
	if off < 0 || n < 0 || n > b.Size()-off {
		return nil, fmt.Errorf("mmt: read [%d,+%d) outside buffer of %d bytes", off, n, b.Size())
	}
	out := make([]byte, n)
	if err := m.ReadAt(off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadOnly reports whether the buffer arrived as an ownership copy.
func (b *Buffer) ReadOnly() bool {
	pmo, err := b.mmtOf()
	if err != nil || pmo.MMT() == nil {
		return false
	}
	return pmo.MMT().ReadOnly()
}

// Free releases the buffer's region back to its machine's pool.
func (b *Buffer) Free() error {
	if err := b.machine.mon.FreePMO(b.owner, b.cap); err != nil {
		return err
	}
	b.machine.cluster.markStructural()
	return nil
}

// Delegate sends the buffer's MMT closure to the link's other endpoint and
// pumps both monitors until the transfer completes (accept + ack). With
// OwnershipTransfer the local buffer is consumed; with OwnershipCopy it
// remains valid and writable after the ack. The received buffer waits on
// the peer until Receive collects it. A send whose ack never came back
// (the network lost the closure or the ack) returns ErrUnacked, and the
// buffer stays read-only in flight.
func (l *Link) Delegate(b *Buffer, mode TransferMode) error {
	from, to, err := l.ends(b)
	if err != nil {
		return err
	}
	if err := from.machine.mon.SendPMO(from.id, b.cap, l.id, mode); err != nil {
		return err
	}
	// Receiver verifies and acks or nacks; sender completes or recovers.
	l.cluster.markStructural()
	if err := errors.Join(to.machine.mon.PumpAll(), from.machine.mon.PumpAll()); err != nil {
		return err
	}
	if pmo, err := b.mmtOf(); err == nil && pmo.MMT().State() == core.StateSending {
		return fmt.Errorf("%w on link %s", ErrUnacked, l.id)
	}
	return nil
}

// Receive collects the oldest buffer delegated to e over this link.
func (l *Link) Receive(e *Enclave) (*Buffer, error) {
	if _, err := l.endpointOf(e); err != nil {
		return nil, err
	}
	p, ok := e.machine.mon.TakeReceived(l.id)
	if !ok {
		return nil, ErrNoPending
	}
	l.cluster.markStructural()
	return &Buffer{machine: e.machine, owner: p.Owner, cap: p.Cap}, nil
}
