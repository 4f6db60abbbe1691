package core

import (
	"errors"
	"fmt"

	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/forest"
)

// Delegation protocol errors.
var (
	// ErrReplay: the closure's root counter is not newer than the last one
	// accepted on this connection — a stale closure was re-injected.
	ErrReplay = errors.New("core: replayed MMT closure (counter not fresh)")
	// ErrReorder: the closure's global-unique address is not greater than
	// the previous one on this connection — packets were re-ordered.
	ErrReorder = errors.New("core: re-ordered MMT closure (address not monotonic)")
	// ErrAuth: the sealed root failed authentication (tampered or wrong
	// key).
	ErrAuth = crypt.ErrAuth
	// ErrIntegrity: a tree-node or line MAC inside the closure failed
	// verification during install (re-exported so delegation endpoints
	// can classify rejection verdicts without importing the tree).
	ErrIntegrity = engine.ErrIntegrity
	// ErrStaleCounter: the sender detected, before sealing, that this
	// MMT's root counter can no longer satisfy the connection's freshness
	// floor — a later delegation on the same connection already consumed a
	// higher counter. The peer would reject the closure with ErrReplay, so
	// BeginSend fails fast without mutating any state; re-acquire the
	// buffer (Conn.NextCounter) to delegate its contents.
	ErrStaleCounter = errors.New("core: stale root counter (connection floor has moved past this MMT)")
)

// Node is one machine's MMT runtime: the controller plus the integrity-
// forest address allocator and the per-region MMT state machines.
type Node struct {
	id    forest.NodeID
	ctl   *engine.Controller
	alloc *forest.Allocator
	mmts  map[int]*MMT
}

// NewNode binds a core runtime to an attested node id and its controller.
func NewNode(id forest.NodeID, ctl *engine.Controller) *Node {
	return &Node{id: id, ctl: ctl, alloc: forest.NewAllocator(id), mmts: make(map[int]*MMT)}
}

// ID reports the node's attested identity.
func (n *Node) ID() forest.NodeID { return n.id }

// Controller reports the node's MMT controller.
func (n *Node) Controller() *engine.Controller { return n.ctl }

// MMT is one migratable Merkle tree bound to a protection region, carrying
// the extended root state of §IV-B1 (state, key, counter, global-unique
// address — the key and counter themselves live in the controller/tree).
type MMT struct {
	node     *Node
	region   int
	state    State
	key      crypt.Key
	guaddr   uint64
	mode     TransferMode // how this MMT arrived / is being sent
	readOnly bool         // true for received ownership-copy MMTs
}

// Region reports the protection region this MMT covers.
func (m *MMT) Region() int { return m.region }

// State reports the MMT root state.
func (m *MMT) State() State { return m.state }

// GUAddr reports the MMT's global-unique address.
func (m *MMT) GUAddr() uint64 { return m.guaddr }

// Key reports the MMT key. The snapshot layer persists it: it is the only
// durable copy (hardware would keep it in the sealed root).
func (m *MMT) Key() crypt.Key { return m.key }

// Mode reports how this MMT arrived / is being sent.
func (m *MMT) Mode() TransferMode { return m.mode }

// ReadOnly reports whether this MMT arrived as an ownership copy.
func (m *MMT) ReadOnly() bool { return m.readOnly }

// Counter reports the current root counter.
func (m *MMT) Counter() uint64 { return m.node.ctl.RootCounter(m.region) }

// Acquire allocates an MMT over region: invalid -> valid with a fresh
// global-unique address and the given initial root counter ("a user can
// initialize the root counter with a given value when the MMT state is
// changed to valid"). Region contents are encrypted in place.
func (n *Node) Acquire(region int, key crypt.Key, initCounter uint64) (*MMT, error) {
	if old := n.mmts[region]; old != nil && old.state != StateInvalid {
		return nil, fmt.Errorf("%w: region %d is %v", ErrState, region, old.state)
	}
	guaddr := n.alloc.Next()
	if err := n.ctl.Enable(region, key, guaddr, initCounter); err != nil {
		return nil, err
	}
	m := &MMT{node: n, region: region, state: StateValid, key: key, guaddr: guaddr}
	n.mmts[region] = m
	return m, nil
}

// Get reports the MMT currently bound to region, if any.
func (n *Node) Get(region int) (*MMT, bool) {
	m, ok := n.mmts[region]
	if !ok || m.state == StateInvalid {
		return nil, false
	}
	return m, true
}

// AllocNext reports the allocator's next monotonic number (persisted so a
// reloaded node keeps its strictly-increasing address guarantee).
func (n *Node) AllocNext() uint64 { return n.alloc.NextValue() }

// RestoreNode rebuilds a core runtime from persisted state: the attested
// node id plus the allocator's next monotonic number. MMT records are
// reattached with RestoreMMT.
func RestoreNode(id forest.NodeID, ctl *engine.Controller, allocNext uint64) (*Node, error) {
	alloc, err := forest.RestoreAllocator(id, allocNext)
	if err != nil {
		return nil, err
	}
	return &Node{id: id, ctl: ctl, alloc: alloc, mmts: make(map[int]*MMT)}, nil
}

// RestoreMMT reattaches a persisted MMT record to region. It only rebuilds
// the root-state bookkeeping; the region's engine state (tree, ciphertext,
// MACs) must already have been installed — and therefore cryptographically
// verified — through the controller before calling this.
func (n *Node) RestoreMMT(region int, st State, key crypt.Key, guaddr uint64, mode TransferMode, readOnly bool) (*MMT, error) {
	if old := n.mmts[region]; old != nil && old.state != StateInvalid {
		return nil, fmt.Errorf("%w: region %d is %v", ErrState, region, old.state)
	}
	m := &MMT{node: n, region: region, state: st, key: key, guaddr: guaddr, mode: mode, readOnly: readOnly}
	n.mmts[region] = m
	return m, nil
}

// readable reports whether the MMT's state admits reads.
func (m *MMT) readable() error {
	if m.state != StateValid && m.state != StateSending {
		return fmt.Errorf("%w: read in state %v", ErrState, m.state)
	}
	return nil
}

// writable reports whether the MMT's state admits writes.
func (m *MMT) writable() error {
	if m.state != StateValid {
		return fmt.Errorf("%w: write in state %v", ErrState, m.state)
	}
	if m.readOnly {
		return engine.ErrReadOnly
	}
	return nil
}

// Read decrypts one line of the MMT's region (verifying the path) into a
// fresh buffer.
func (m *MMT) Read(line int) ([]byte, error) {
	out := make([]byte, engine.LineSize)
	if err := m.ReadInto(line, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Write encrypts one line into the MMT's region (updating the tree).
func (m *MMT) Write(line int, plaintext []byte) error {
	if err := m.writable(); err != nil {
		return err
	}
	return m.node.ctl.Write(m.region, line, plaintext)
}

// ReadInto decrypts one line of the MMT's region (verifying the path)
// into dst, which must be engine.LineSize bytes. It is Read without the
// per-line allocation.
func (m *MMT) ReadInto(line int, dst []byte) error {
	if err := m.readable(); err != nil {
		return err
	}
	return m.node.ctl.ReadInto(m.region, line, dst)
}

// checkSpan rejects a byte span that does not lie inside the region.
func (m *MMT) checkSpan(op string, off, n int) error {
	if size := m.node.ctl.DataSize(); off < 0 || n < 0 || n > size-off {
		return fmt.Errorf("core: %s [%d,+%d) outside region of %d bytes", op, off, n, size)
	}
	return nil
}

// ReadAt fills dst with the bytes at byte offset off of the MMT's region.
// It is the one place a byte span is cut into lines: a partial first or
// last line is staged through one line buffer, and the whole lines
// between go to the controller's range kernel in one call, decrypted
// straight into dst. A span outside the region is refused before any
// line is touched.
func (m *MMT) ReadAt(off int, dst []byte) error {
	if err := m.checkSpan("read", off, len(dst)); err != nil {
		return err
	}
	var stage [engine.LineSize]byte
	line := off / engine.LineSize
	if lo := off % engine.LineSize; lo != 0 && len(dst) > 0 {
		if err := m.ReadInto(line, stage[:]); err != nil {
			return err
		}
		dst = dst[copy(dst, stage[lo:]):]
		line++
	}
	if whole := len(dst) / engine.LineSize * engine.LineSize; whole > 0 {
		if err := m.readable(); err != nil {
			return err
		}
		if err := m.node.ctl.ReadRange(m.region, line, dst[:whole]); err != nil {
			return err
		}
		dst = dst[whole:]
		line += whole / engine.LineSize
	}
	if len(dst) > 0 {
		if err := m.ReadInto(line, stage[:]); err != nil {
			return err
		}
		copy(dst, stage[:])
	}
	return nil
}

// WriteAt stores p at byte offset off of the MMT's region, cutting the
// span exactly as ReadAt does: a partial first or last line is
// read-modify-written through one line buffer, the whole lines between
// go to the controller's range kernel in one call. A span outside the
// region is refused before any line is written.
func (m *MMT) WriteAt(off int, p []byte) error {
	if err := m.checkSpan("write", off, len(p)); err != nil {
		return err
	}
	var stage [engine.LineSize]byte
	partial := func(line, lo int) error {
		if err := m.ReadInto(line, stage[:]); err != nil {
			return err
		}
		p = p[copy(stage[lo:], p):]
		return m.Write(line, stage[:])
	}
	line := off / engine.LineSize
	if lo := off % engine.LineSize; lo != 0 && len(p) > 0 {
		if err := partial(line, lo); err != nil {
			return err
		}
		line++
	}
	if whole := len(p) / engine.LineSize * engine.LineSize; whole > 0 {
		if err := m.writable(); err != nil {
			return err
		}
		if err := m.node.ctl.WriteRange(m.region, line, p[:whole]); err != nil {
			return err
		}
		p = p[whole:]
		line += whole / engine.LineSize
	}
	if len(p) > 0 {
		return partial(line, 0)
	}
	return nil
}

// WriteBytes writes a byte span starting at a line boundary, padding the
// final line with zeros. Convenience for message-passing payloads.
func (m *MMT) WriteBytes(startLine int, p []byte) error {
	off, whole := startLine*engine.LineSize, len(p)/engine.LineSize*engine.LineSize
	if whole == len(p) {
		return m.WriteAt(off, p)
	}
	// Refuse a padded last line outside the region before writing any.
	if err := m.checkSpan("write", off, whole+engine.LineSize); err != nil {
		return err
	}
	if err := m.WriteAt(off, p[:whole]); err != nil {
		return err
	}
	// The padded line goes through the one-line entry point, as the partial
	// lines of ReadAt and WriteAt do: the range kernels may hand their span
	// to other goroutines, and a stack line passed to them would escape.
	var last [engine.LineSize]byte
	copy(last[:], p[whole:])
	return m.Write(startLine+whole/engine.LineSize, last[:])
}

// ReadBytes reads n bytes starting at a line boundary.
func (m *MMT) ReadBytes(startLine, n int) ([]byte, error) {
	if err := m.checkSpan("read", startLine*engine.LineSize, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := m.ReadAt(startLine*engine.LineSize, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Reclaim invalidates a valid MMT (valid -> invalid), dropping the key.
func (m *MMT) Reclaim() error {
	if err := checkTransition(m.state, StateInvalid); err != nil {
		return err
	}
	m.node.ctl.Invalidate(m.region)
	m.state = StateInvalid
	return nil
}

// Conn is one end's view of a delegation connection after the MMT key
// exchange (§IV-B2 step 1): the agreed MMT key, the last accepted root
// counter (freshness floor) and the last accepted global-unique address
// (ordering floor). Both endpoints hold a Conn initialised identically.
type Conn struct {
	key         crypt.Key
	lastCounter uint64
	lastGUAddr  uint64
	// eng is the key's derived engine, built by the first Accept: every
	// closure on the connection is unsealed under the same key. It is
	// derived state, so snapshots carry the key and RestoreConn nothing more.
	eng *crypt.Engine
}

// NewConn builds a connection endpoint with the agreed key and initial
// root counter.
func NewConn(key crypt.Key, initCounter uint64) *Conn {
	return &Conn{key: key, lastCounter: initCounter}
}

// Key reports the agreed MMT key.
func (c *Conn) Key() crypt.Key { return c.key }

// LastCounter reports the freshness floor (last accepted root counter).
func (c *Conn) LastCounter() uint64 { return c.lastCounter }

// LastGUAddr reports the ordering floor (last accepted global-unique
// address).
func (c *Conn) LastGUAddr() uint64 { return c.lastGUAddr }

// RestoreConn rebuilds a connection endpoint from persisted floors, so a
// reloaded cluster keeps rejecting exactly the replays and re-orderings
// the live one would have.
func RestoreConn(key crypt.Key, lastCounter, lastGUAddr uint64) *Conn {
	return &Conn{key: key, lastCounter: lastCounter, lastGUAddr: lastGUAddr}
}

// engine returns the connection key's engine, deriving it on first use.
func (c *Conn) engine() *crypt.Engine {
	if c.eng == nil {
		c.eng = crypt.NewEngine(c.key)
	}
	return c.eng
}

// NextCounter returns a root-counter initial value guaranteed fresh for
// the next buffer acquired on this connection.
func (c *Conn) NextCounter() uint64 { return c.lastCounter + 1 }

// BeginSend starts a delegation (§IV-B2 steps 2-3 on the sender): the MMT
// moves valid -> sending, the region becomes read-only, the root counter
// is bumped, and the closure — sealed root, tree nodes, line MACs and raw
// ciphertext — is built. The caller puts the encoded closure on the wire.
//
// The closure borrows the region's ciphertext and line MACs instead of
// copying them (the region stays read-only while the MMT is sending, so
// they cannot change underneath it): encode it before CompleteSend, and
// never write through it.
func (m *MMT) BeginSend(conn *Conn, mode TransferMode) (*Closure, error) {
	if m.key != conn.key {
		return nil, fmt.Errorf("core: MMT key differs from connection key")
	}
	if err := checkTransition(m.state, StateSending); err != nil {
		return nil, err
	}
	if m.readOnly && mode == OwnershipTransfer {
		return nil, fmt.Errorf("%w: cannot transfer ownership of a read-only copy", ErrState)
	}
	ctl := m.node.ctl
	// Freshness pre-check: sealing bumps the root counter to cur+1 and the
	// peer rejects any closure whose counter is <= its floor. Failing here,
	// before any transition, keeps the MMT valid and writable.
	if cur := ctl.RootCounter(m.region); cur+1 <= conn.lastCounter {
		return nil, fmt.Errorf("%w: counter %d+1 <= floor %d", ErrStaleCounter, cur, conn.lastCounter)
	}
	if err := ctl.BumpRootCounter(m.region); err != nil {
		return nil, err
	}
	if err := ctl.SetMode(m.region, engine.ModeReadOnly); err != nil {
		return nil, err
	}
	m.state = StateSending
	m.mode = mode

	treeBytes, data, macs, rootCtr, guaddr, err := ctl.Export(m.region)
	if err != nil {
		return nil, err
	}
	e, err := ctl.Crypto(m.region)
	if err != nil {
		return nil, err
	}
	c := &Closure{
		Mode:        mode,
		GUAddrHint:  guaddr,
		CounterHint: rootCtr,
		TreeNodes:   treeBytes,
		LineMACs:    macs,
		Data:        data,
	}
	sealRoot(e, c, rootPlain{GUAddr: guaddr, Counter: rootCtr, Mode: mode})
	conn.lastCounter = rootCtr
	return c, nil
}

// CompleteSend finishes the sender side on ack (§IV-B2 step 4): ownership
// transfer invalidates the local MMT; ownership copy returns it to valid
// (writable again). A failed delegation (ack=false) also returns to valid
// so the sender can retry.
func (m *MMT) CompleteSend(ack bool) error {
	if m.state != StateSending {
		return fmt.Errorf("%w: CompleteSend in state %v", ErrState, m.state)
	}
	if ack && m.mode == OwnershipTransfer {
		m.node.ctl.Invalidate(m.region)
		m.state = StateInvalid
		return nil
	}
	var mode engine.Mode = engine.ModeReadWrite
	if m.readOnly {
		mode = engine.ModeReadOnly
	}
	if err := m.node.ctl.SetMode(m.region, mode); err != nil {
		return err
	}
	m.state = StateValid
	return nil
}

// Expect registers region as the receive buffer for the next delegation on
// conn: invalid -> waiting (§IV-B2 step 2 on the receiver).
func (n *Node) Expect(region int, conn *Conn) (*MMT, error) {
	if old := n.mmts[region]; old != nil && old.state != StateInvalid {
		return nil, fmt.Errorf("%w: region %d is %v", ErrState, region, old.state)
	}
	m := &MMT{node: n, region: region, state: StateWaiting, key: conn.key}
	n.mmts[region] = m
	return m, nil
}

// Cancel releases a waiting receive buffer (waiting -> invalid), freeing
// the region for a fresh Expect. Receivers call it when a delegation is
// rejected and the buffer record should not linger.
func (m *MMT) Cancel() error {
	if err := checkTransition(m.state, StateInvalid); err != nil {
		return err
	}
	if m.state != StateWaiting {
		return fmt.Errorf("%w: Cancel in state %v", ErrState, m.state)
	}
	m.state = StateInvalid
	return nil
}

// Accept runs the receiver side of the delegation (§IV-B2 step 3): unseal
// and authenticate the root under the connection key, enforce counter
// freshness and address monotonicity, verify every tree node and line MAC,
// and install the tree. On success the MMT is waiting -> valid (writable
// for ownership transfer, read-only for ownership copy) and the caller
// returns an ack to the sender. On any failure the region stays waiting
// and no state leaks.
func (m *MMT) Accept(conn *Conn, wire []byte) error {
	if m.state != StateWaiting {
		return fmt.Errorf("%w: Accept in state %v", ErrState, m.state)
	}
	c, err := DecodeClosure(wire)
	if err != nil {
		return err
	}
	root, err := unsealRoot(conn.engine(), c)
	if err != nil {
		return err
	}
	// Freshness: "reject any incoming MMT closure with less or the same
	// counter value".
	if root.Counter <= conn.lastCounter {
		return fmt.Errorf("%w: counter %d <= last %d", ErrReplay, root.Counter, conn.lastCounter)
	}
	// Ordering: "the address in the MMT root of the latter is larger than
	// the former".
	if root.GUAddr <= conn.lastGUAddr {
		return fmt.Errorf("%w: address %#x <= last %#x", ErrReorder, root.GUAddr, conn.lastGUAddr)
	}
	mode := engine.ModeReadWrite
	if c.Mode == OwnershipCopy {
		mode = engine.ModeReadOnly
	}
	if err := m.node.ctl.Install(m.region, conn.key, root.GUAddr, root.Counter,
		c.TreeNodes, c.Data, c.LineMACs, mode); err != nil {
		return err
	}
	conn.lastCounter = root.Counter
	conn.lastGUAddr = root.GUAddr
	m.state = StateValid
	m.guaddr = root.GUAddr
	m.mode = c.Mode
	m.readOnly = c.Mode == OwnershipCopy
	return nil
}
