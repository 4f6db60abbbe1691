package mmt

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"mmt/internal/tree"
)

// tamperFunc adapts a function to the public Interposer interface.
type tamperFunc func(WireMessage) []WireMessage

func (f tamperFunc) Intercept(m WireMessage) []WireMessage { return f(m) }

// wireSpy captures every payload on the wire without modifying anything.
type wireSpy struct {
	Captured [][]byte
}

func (s *wireSpy) Intercept(m WireMessage) []WireMessage {
	s.Captured = append(s.Captured, append([]byte(nil), m.Payload...))
	return []WireMessage{m}
}

// smallCluster uses the 2-level (64K) tree so full-stack tests stay fast.
func smallCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(WithTreeLevels(2), WithRegions(6))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func twoMachines(t *testing.T) (*Cluster, *Machine, *Machine) {
	t.Helper()
	c := smallCluster(t)
	a, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	return c, a, b
}

func TestClusterBootAndIdentity(t *testing.T) {
	_, a, b := twoMachines(t)
	if a.NodeID() == 0 || b.NodeID() == 0 || a.NodeID() == b.NodeID() {
		t.Fatalf("bad node ids: %d %d", a.NodeID(), b.NodeID())
	}
	if a.Name() != "alice" {
		t.Fatal("name wrong")
	}
}

func TestDuplicateMachineRejected(t *testing.T) {
	c := smallCluster(t)
	if _, err := c.AddMachine("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMachine("x"); err == nil {
		t.Fatal("duplicate machine accepted")
	}
	if _, ok := c.Machine("x"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := c.Machine("ghost"); ok {
		t.Fatal("phantom machine")
	}
}

func TestEndToEndOwnershipTransfer(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("producer", []byte("code-a"))
	receiver := b.Spawn("consumer", []byte("code-b"))
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}

	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("the complete works, encrypted at rest and in flight")
	if err := buf.Write(100, secret); err != nil {
		t.Fatal(err)
	}
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}

	got, err := link.Receive(receiver)
	if err != nil {
		t.Fatal(err)
	}
	data, err := got.Read(100, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, secret) {
		t.Fatal("payload corrupted in delegation")
	}
	if got.ReadOnly() {
		t.Fatal("ownership transfer should be writable")
	}
	if err := got.Write(0, []byte("receiver owns it")); err != nil {
		t.Fatal(err)
	}
	// Sender's buffer is consumed.
	if _, err := buf.Read(0, 1); err == nil {
		t.Fatal("sender buffer still readable after ownership transfer")
	}
	// No second receive pending.
	if _, err := link.Receive(receiver); !errors.Is(err, ErrNoPending) {
		t.Fatalf("phantom receive: %v", err)
	}
}

func TestEndToEndOwnershipCopy(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := link.Delegate(buf, OwnershipCopy); err != nil {
		t.Fatal(err)
	}
	got, err := link.Receive(receiver)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ReadOnly() {
		t.Fatal("copy should be read-only")
	}
	if err := got.Write(0, []byte("nope")); err == nil {
		t.Fatal("write to read-only copy succeeded")
	}
	// Sender keeps writing.
	if err := buf.Write(0, []byte("still mine")); err != nil {
		t.Fatal(err)
	}
}

func TestDelegationRejectedUnderAttack(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, []byte("target")); err != nil {
		t.Fatal(err)
	}
	c.SetInterposer(tamperFunc(func(m WireMessage) []WireMessage {
		if m.Kind == WireClosure && len(m.Payload) > 0 {
			p := append([]byte(nil), m.Payload...)
			p[len(p)-3] ^= 1
			m.Payload = p
		}
		return []WireMessage{m}
	}))
	if err := link.Delegate(buf, OwnershipTransfer); err == nil {
		t.Fatal("tampered delegation succeeded")
	}
	c.SetInterposer(nil)
	// Sender recovered; retry succeeds.
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatalf("retry after attack: %v", err)
	}
	if _, err := link.Receive(receiver); err != nil {
		t.Fatal(err)
	}
}

func TestSpyOnWireSeesNoPlaintext(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("extremely confidential plaintext content here")
	if err := buf.Write(0, secret); err != nil {
		t.Fatal(err)
	}
	spy := &wireSpy{}
	c.SetInterposer(spy)
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	for _, p := range spy.Captured {
		if bytes.Contains(p, secret[:16]) {
			t.Fatal("plaintext visible on the wire")
		}
	}
	if len(spy.Captured) == 0 {
		t.Fatal("spy saw nothing; test is vacuous")
	}
}

func TestBufferBounds(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("p", nil)
	receiver := b.Spawn("q", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(buf.Size()-1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(buf.Size(), []byte{1}); err == nil {
		t.Fatal("write past end accepted")
	}
	if _, err := buf.Read(-1, 1); err == nil {
		t.Fatal("negative read accepted")
	}
	if _, err := buf.Read(0, buf.Size()+1); err == nil {
		t.Fatal("oversized read accepted")
	}
}

// TestBufferBoundsOverflow: spans whose end overflows int, or that start
// before the buffer, are refused with an error — no panic from a wrapped
// bound reaching make or a slice — and change nothing: not the machine's
// clock, not the buffer's bytes.
func TestBufferBoundsOverflow(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("p", nil)
	link, err := c.Connect(sender, b.Spawn("q", nil))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, bytes.Repeat([]byte{7}, buf.Size())); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ off, n int }{{1, math.MaxInt}, {math.MaxInt, 1}, {-1, 0}} {
		before := a.Clock().Now()
		if _, err := buf.Read(tc.off, tc.n); err == nil {
			t.Fatalf("Read(%d, %d) accepted", tc.off, tc.n)
		}
		if tc.n <= buf.Size() {
			if err := buf.Write(tc.off, make([]byte, tc.n)); err == nil {
				t.Fatalf("Write(%d, %d bytes) accepted", tc.off, tc.n)
			}
		}
		if a.Clock().Now() != before {
			t.Fatalf("refused span at (%d, %d) advanced the clock", tc.off, tc.n)
		}
	}
	if got, err := buf.Read(0, buf.Size()); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{7}, buf.Size())) {
		t.Fatalf("buffer changed by refused spans: %v", err)
	}
}

func TestSameMachineLinkRejected(t *testing.T) {
	c := smallCluster(t)
	a, err := c.AddMachine("solo")
	if err != nil {
		t.Fatal(err)
	}
	e1 := a.Spawn("e1", nil)
	e2 := a.Spawn("e2", nil)
	if _, err := c.Connect(e1, e2); err == nil {
		t.Fatal("same-machine link accepted")
	}
}

func TestForeignEnclaveRejectedOnLink(t *testing.T) {
	c, a, b := twoMachines(t)
	s := a.Spawn("s", nil)
	r := b.Spawn("r", nil)
	link, err := c.Connect(s, r)
	if err != nil {
		t.Fatal(err)
	}
	outsiderMachine, err := c.AddMachine("carol")
	if err != nil {
		t.Fatal(err)
	}
	outsider := outsiderMachine.Spawn("o", nil)
	if _, err := link.NewBuffer(outsider); !errors.Is(err, ErrNotOnLink) {
		t.Fatalf("outsider NewBuffer: %v", err)
	}
	if _, err := link.Receive(outsider); !errors.Is(err, ErrNotOnLink) {
		t.Fatalf("outsider Receive: %v", err)
	}
}

func TestClockAdvancesWithWork(t *testing.T) {
	c, a, b := twoMachines(t)
	s := a.Spawn("s", nil)
	r := b.Spawn("r", nil)
	link, err := c.Connect(s, r)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(s)
	if err != nil {
		t.Fatal(err)
	}
	before := b.Clock().Now()
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	if b.Clock().Now() <= before {
		t.Fatal("receiver clock did not advance with the transfer")
	}
}

func TestGeometryExposed(t *testing.T) {
	c := smallCluster(t)
	if c.Geometry().DataSize() != tree.ForLevels(2).DataSize() {
		t.Fatal("geometry mismatch")
	}
}
