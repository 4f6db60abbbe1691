package core

import (
	"bytes"
	"errors"
	"testing"

	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/forest"
	"mmt/internal/sim"
	"mmt/internal/tree"
)

var testGeo = tree.Geometry{Arities: []int{2, 3, 4}} // 24 lines, 1536 B

func newTestNode(t testing.TB, id int) *Node {
	t.Helper()
	ctl, err := engine.NewRegions(4, testGeo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	return NewNode(forest.NodeID(id), ctl)
}

var connKey = crypt.KeyFromBytes([]byte("conn-key"))

// pair builds a sender/receiver pair with matching connection state, a
// valid MMT on the sender (region 0) holding payload, and a waiting buffer
// on the receiver (region 0).
func pair(t *testing.T, payload []byte) (snd, rcv *Node, sm, rm *MMT, sconn, rconn *Conn) {
	t.Helper()
	snd = newTestNode(t, 1)
	rcv = newTestNode(t, 2)
	sconn = NewConn(connKey, 100)
	rconn = NewConn(connKey, 100)
	var err error
	sm, err = snd.Acquire(0, connKey, sconn.NextCounter())
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.WriteBytes(0, payload); err != nil {
		t.Fatal(err)
	}
	rm, err = rcv.Expect(0, rconn)
	if err != nil {
		t.Fatal(err)
	}
	return snd, rcv, sm, rm, sconn, rconn
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateInvalid: "invalid", StateValid: "valid",
		StateSending: "sending", StateWaiting: "waiting",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("State %d = %q, want %q", s, s.String(), w)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state should still print")
	}
	if OwnershipTransfer.String() != "ownership-transfer" || OwnershipCopy.String() != "ownership-copy" {
		t.Error("TransferMode strings wrong")
	}
	if TransferMode(0).String() == "" {
		t.Error("unknown mode should still print")
	}
}

func TestAcquireWriteRead(t *testing.T) {
	n := newTestNode(t, 1)
	m, err := n.Acquire(0, connKey, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.State() != StateValid {
		t.Fatalf("state = %v", m.State())
	}
	if m.Counter() != 5 {
		t.Fatalf("initial counter = %d, want 5", m.Counter())
	}
	msg := []byte("hello distributed secure memory")
	if err := m.WriteBytes(0, msg); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(0, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip failed")
	}
	if _, ok := n.Get(0); !ok {
		t.Fatal("Get(0) lost the MMT")
	}
	if _, ok := n.Get(1); ok {
		t.Fatal("Get(1) found a ghost MMT")
	}
}

func TestAcquireBusyRegion(t *testing.T) {
	n := newTestNode(t, 1)
	if _, err := n.Acquire(0, connKey, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Acquire(0, connKey, 1); !errors.Is(err, ErrState) {
		t.Fatalf("double acquire: %v", err)
	}
	if _, err := n.Expect(0, NewConn(connKey, 0)); !errors.Is(err, ErrState) {
		t.Fatalf("expect on busy region: %v", err)
	}
}

func TestReclaim(t *testing.T) {
	n := newTestNode(t, 1)
	m, err := n.Acquire(0, connKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateInvalid {
		t.Fatal("state not invalid after Reclaim")
	}
	if _, err := m.Read(0); !errors.Is(err, ErrState) {
		t.Fatalf("read after reclaim: %v", err)
	}
	// Region is free again.
	if _, err := n.Acquire(0, connKey, 1); err != nil {
		t.Fatalf("re-acquire after reclaim: %v", err)
	}
}

func TestDelegationOwnershipTransfer(t *testing.T) {
	payload := []byte("intermediate map-reduce result, definitely secret")
	_, _, sm, rm, sconn, rconn := pair(t, payload)

	cl, err := sm.BeginSend(sconn, OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	if sm.State() != StateSending {
		t.Fatalf("sender state = %v", sm.State())
	}
	// Sending region is read-only.
	if err := sm.Write(0, make([]byte, engine.LineSize)); err == nil {
		t.Fatal("write allowed while sending")
	}
	// Sender can still read (read-only, not disabled).
	if _, err := sm.Read(0); err != nil {
		t.Fatalf("read while sending: %v", err)
	}

	wire := cl.Encode()
	if err := rm.Accept(rconn, wire); err != nil {
		t.Fatal(err)
	}
	if rm.State() != StateValid || rm.ReadOnly() {
		t.Fatalf("receiver state=%v readOnly=%v", rm.State(), rm.ReadOnly())
	}
	got, err := rm.ReadBytes(0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted in delegation")
	}
	// Receiver owns it: writes work.
	if err := rm.Write(0, bytes.Repeat([]byte{1}, engine.LineSize)); err != nil {
		t.Fatalf("receiver write: %v", err)
	}

	// Ack: sender invalidates.
	if err := sm.CompleteSend(true); err != nil {
		t.Fatal(err)
	}
	if sm.State() != StateInvalid {
		t.Fatalf("sender state after ack = %v", sm.State())
	}
	if _, err := sm.Read(0); !errors.Is(err, ErrState) {
		t.Fatal("sender still readable after ownership transfer")
	}
}

func TestDelegationOwnershipCopy(t *testing.T) {
	payload := []byte("read-only snapshot")
	_, _, sm, rm, sconn, rconn := pair(t, payload)

	cl, err := sm.BeginSend(sconn, OwnershipCopy)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Accept(rconn, cl.Encode()); err != nil {
		t.Fatal(err)
	}
	if !rm.ReadOnly() {
		t.Fatal("copy-mode receiver not read-only")
	}
	if err := rm.Write(0, make([]byte, engine.LineSize)); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("receiver write on copy: %v, want ErrReadOnly", err)
	}
	got, err := rm.ReadBytes(0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("copy payload corrupted")
	}

	// Sender keeps ownership and becomes writable again after the ack.
	if err := sm.CompleteSend(true); err != nil {
		t.Fatal(err)
	}
	if sm.State() != StateValid {
		t.Fatalf("sender state after copy ack = %v", sm.State())
	}
	if err := sm.Write(0, bytes.Repeat([]byte{2}, engine.LineSize)); err != nil {
		t.Fatalf("sender write after copy: %v", err)
	}
}

func TestDelegationFailedAckRestoresSender(t *testing.T) {
	_, _, sm, _, sconn, _ := pair(t, []byte("x"))
	if _, err := sm.BeginSend(sconn, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	if err := sm.CompleteSend(false); err != nil {
		t.Fatal(err)
	}
	if sm.State() != StateValid {
		t.Fatalf("sender state after nack = %v", sm.State())
	}
	if err := sm.Write(0, make([]byte, engine.LineSize)); err != nil {
		t.Fatalf("sender write after nack: %v", err)
	}
}

func TestReplayAttackRejected(t *testing.T) {
	// Attacker records a legitimate closure and re-injects it after it was
	// accepted once.
	snd, rcv, sm, rm, sconn, rconn := pair(t, []byte("fresh data"))
	cl, err := sm.BeginSend(sconn, OwnershipCopy)
	if err != nil {
		t.Fatal(err)
	}
	wire := cl.Encode()
	if err := rm.Accept(rconn, wire); err != nil {
		t.Fatal(err)
	}
	if err := sm.CompleteSend(true); err != nil {
		t.Fatal(err)
	}
	_ = snd

	// Receiver sets up a new waiting buffer; attacker replays the stale wire.
	rm2, err := rcv.Expect(1, rconn)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm2.Accept(rconn, wire); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed closure: %v, want ErrReplay", err)
	}
	if rm2.State() != StateWaiting {
		t.Fatalf("receiver state after rejected replay = %v", rm2.State())
	}
}

func TestReorderAttackRejected(t *testing.T) {
	// Two closures sent in order A, B; attacker delivers B then A.
	snd, rcv, smA, rm1, sconn, rconn := pair(t, []byte("first"))
	wireA := mustSend(t, smA, sconn, OwnershipTransfer)

	smB, err := snd.Acquire(1, connKey, sconn.NextCounter())
	if err != nil {
		t.Fatal(err)
	}
	if err := smB.WriteBytes(0, []byte("second")); err != nil {
		t.Fatal(err)
	}
	wireB := mustSend(t, smB, sconn, OwnershipTransfer)

	// Deliver B first: accepted (it is fresher).
	if err := rm1.Accept(rconn, wireB); err != nil {
		t.Fatalf("accept B: %v", err)
	}
	// Now deliver A: must be rejected — both its counter and address are
	// older than B's.
	rm2, err := rcv.Expect(1, rconn)
	if err != nil {
		t.Fatal(err)
	}
	err = rm2.Accept(rconn, wireA)
	if !errors.Is(err, ErrReplay) && !errors.Is(err, ErrReorder) {
		t.Fatalf("re-ordered closure: %v, want replay/reorder rejection", err)
	}
}

func mustSend(t *testing.T, m *MMT, conn *Conn, mode TransferMode) []byte {
	t.Helper()
	cl, err := m.BeginSend(conn, mode)
	if err != nil {
		t.Fatal(err)
	}
	return cl.Encode()
}

func TestTamperedRootRejected(t *testing.T) {
	_, _, sm, rm, sconn, rconn := pair(t, []byte("secret"))
	cl, err := sm.BeginSend(sconn, OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	wire := cl.Encode()
	// Flip a bit inside the sealed root (after the 18-byte header + 4-byte
	// length prefix).
	wire[headerSize+4+2] ^= 0x40
	if err := rm.Accept(rconn, wire); !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered sealed root: %v, want ErrAuth", err)
	}
}

func TestTamperedHeaderRejected(t *testing.T) {
	// The header is the seal's AAD: changing the cleartext counter hint
	// must break authentication, not redirect the freshness check.
	_, _, sm, rm, sconn, rconn := pair(t, []byte("secret"))
	cl, err := sm.BeginSend(sconn, OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	cl.CounterHint += 1000 // attacker inflates the counter hint
	if err := rm.Accept(rconn, cl.Encode()); !errors.Is(err, ErrAuth) {
		t.Fatalf("inflated counter hint: %v, want ErrAuth", err)
	}
}

func TestTamperedDataRejected(t *testing.T) {
	_, _, sm, rm, sconn, rconn := pair(t, []byte("secret"))
	cl, err := sm.BeginSend(sconn, OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	wire := cl.Encode()
	wire[len(wire)-1] ^= 1 // last data byte
	if err := rm.Accept(rconn, wire); !errors.Is(err, engine.ErrIntegrity) {
		t.Fatalf("tampered data: %v, want integrity failure", err)
	}
}

func TestTamperedTreeNodesRejected(t *testing.T) {
	_, _, sm, rm, sconn, rconn := pair(t, []byte("secret"))
	cl, err := sm.BeginSend(sconn, OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	cl.TreeNodes[8]++ // bump a counter in the clear tree nodes
	if err := rm.Accept(rconn, cl.Encode()); !errors.Is(err, engine.ErrIntegrity) {
		t.Fatalf("tampered tree nodes: %v, want integrity failure", err)
	}
}

func TestWrongConnectionKeyRejected(t *testing.T) {
	_, rcv, sm, _, sconn, _ := pair(t, []byte("secret"))
	cl, err := sm.BeginSend(sconn, OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	evil := NewConn(crypt.KeyFromBytes([]byte("evil")), 0)
	rm, err := rcv.Expect(1, evil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Accept(evil, cl.Encode()); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong key accept: %v, want ErrAuth", err)
	}
}

func TestBeginSendKeyMismatch(t *testing.T) {
	n := newTestNode(t, 1)
	m, err := n.Acquire(0, crypt.KeyFromBytes([]byte("buffer-key")), 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(connKey, 0)
	if _, err := m.BeginSend(conn, OwnershipTransfer); err == nil {
		t.Fatal("key mismatch between MMT and connection accepted")
	}
}

func TestRepeatedDelegationsSameConnection(t *testing.T) {
	// Stream of 5 messages over one connection — counters and addresses
	// must keep increasing and every closure must be accepted exactly once.
	snd := newTestNode(t, 1)
	rcv := newTestNode(t, 2)
	sconn, rconn := NewConn(connKey, 0), NewConn(connKey, 0)
	for i := 0; i < 5; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 100)
		sm, err := snd.Acquire(i%3, connKey, sconn.NextCounter())
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if err := sm.WriteBytes(0, payload); err != nil {
			t.Fatal(err)
		}
		rm, err := rcv.Expect(i%3, rconn)
		if err != nil {
			t.Fatalf("expect %d: %v", i, err)
		}
		cl, err := sm.BeginSend(sconn, OwnershipTransfer)
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if err := rm.Accept(rconn, cl.Encode()); err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
		got, err := rm.ReadBytes(0, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("payload %d corrupted: %v", i, err)
		}
		if err := sm.CompleteSend(true); err != nil {
			t.Fatal(err)
		}
		if err := rm.Reclaim(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCopyOfCopyForbidden(t *testing.T) {
	// A read-only copy cannot be ownership-transferred onward ("there is
	// only one writable copy of secure memory in the whole system").
	_, rcv, sm, rm, sconn, rconn := pair(t, []byte("snapshot"))
	cl, err := sm.BeginSend(sconn, OwnershipCopy)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Accept(rconn, cl.Encode()); err != nil {
		t.Fatal(err)
	}
	_ = rcv
	fwd := NewConn(connKey, rconn.lastCounter)
	if _, err := rm.BeginSend(fwd, OwnershipTransfer); !errors.Is(err, ErrState) {
		t.Fatalf("ownership transfer of read-only copy: %v, want ErrState", err)
	}
	// Forwarding a copy of the copy is allowed.
	if _, err := rm.BeginSend(fwd, OwnershipCopy); err != nil {
		t.Fatalf("copy of copy: %v", err)
	}
}

func TestAcceptInWrongState(t *testing.T) {
	_, _, sm, rm, sconn, rconn := pair(t, []byte("x"))
	cl, err := sm.BeginSend(sconn, OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	wire := cl.Encode()
	if err := rm.Accept(rconn, wire); err != nil {
		t.Fatal(err)
	}
	// Second accept on the same (now valid) MMT.
	if err := rm.Accept(rconn, wire); !errors.Is(err, ErrState) {
		t.Fatalf("accept in valid state: %v, want ErrState", err)
	}
}
