package netsim

import (
	"bytes"
	"testing"

	"mmt/internal/sim"
)

func twoNodes(t *testing.T, latency sim.Time) (*Network, *Endpoint, *Endpoint) {
	t.Helper()
	n := NewNetwork(latency)
	a, err := n.Attach("a", sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach("b", sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

func TestSendRecvRoundTrip(t *testing.T) {
	_, a, b := twoNodes(t, 0)
	a.Send("b", KindData, []byte("hello"))
	m, ok := b.Recv()
	if !ok {
		t.Fatal("no message delivered")
	}
	if m.From != "a" || m.To != "b" || m.Kind != KindData || !bytes.Equal(m.Payload, []byte("hello")) {
		t.Fatalf("message corrupted: %+v", m)
	}
	if _, ok := b.Recv(); ok {
		t.Fatal("phantom second message")
	}
}

func TestPayloadCopied(t *testing.T) {
	_, a, b := twoNodes(t, 0)
	p := []byte("mutable")
	a.Send("b", KindData, p)
	p[0] = 'X'
	m, _ := b.Recv()
	if m.Payload[0] != 'm' {
		t.Fatal("payload aliases sender buffer")
	}
}

func TestLatencyAdvancesReceiverClock(t *testing.T) {
	_, a, b := twoNodes(t, 5e-3)
	a.Clock().SyncTo(1e-3)
	a.Send("b", KindData, []byte("x"))
	m, _ := b.Recv()
	if got := float64(m.ArriveAt); got != 6e-3 {
		t.Fatalf("ArriveAt = %v, want 6ms", got)
	}
	if b.Clock().Now() < 6e-3 {
		t.Fatalf("receiver clock %v, want >= 6ms", b.Clock().Now())
	}
}

func TestReceiverClockNotRewound(t *testing.T) {
	_, a, b := twoNodes(t, 1e-3)
	b.Clock().SyncTo(1) // receiver is far ahead
	a.Send("b", KindData, []byte("x"))
	b.Recv()
	if b.Clock().Now() != 1 {
		t.Fatalf("receiver clock moved backwards: %v", b.Clock().Now())
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	n, a, _ := twoNodes(t, 0)
	a.Send("nobody", KindData, []byte("x"))
	if n.Delivered() != 0 {
		t.Fatal("message to unknown endpoint delivered")
	}
}

func TestDuplicateAttachRejected(t *testing.T) {
	n := NewNetwork(0)
	if _, err := n.Attach("a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("a", nil); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
}

func TestPending(t *testing.T) {
	_, a, b := twoNodes(t, 0)
	for i := 0; i < 3; i++ {
		a.Send("b", KindData, []byte{byte(i)})
	}
	if b.Pending() != 3 {
		t.Fatalf("Pending = %d", b.Pending())
	}
	// FIFO order. A popped slot of the inbox's backing array — which the
	// rest of the queue keeps alive — lets go of its payload.
	held := b.inbox
	for i := 0; i < 3; i++ {
		m, ok := b.Recv()
		if !ok || m.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order: %+v", i, m)
		}
		if held[i].Payload != nil {
			t.Fatalf("inbox still references the payload of message %d after Recv", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindData.String() != "data" || KindClosure.String() != "closure" || KindControl.String() != "control" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should print")
	}
}

func TestTamperer(t *testing.T) {
	n, a, b := twoNodes(t, 0)
	n.SetInterposer(&Tamperer{Kind: KindClosure, Offset: 2, Bit: 3})
	a.Send("b", KindClosure, []byte{0, 0, 0, 0})
	m, _ := b.Recv()
	if m.Payload[2] != 1<<3 {
		t.Fatalf("payload not tampered: %v", m.Payload)
	}
	// Other kinds untouched.
	a.Send("b", KindData, []byte{0, 0, 0, 0})
	m, _ = b.Recv()
	if m.Payload[2] != 0 {
		t.Fatal("tamperer hit wrong kind")
	}
}

func TestReplayer(t *testing.T) {
	n, a, b := twoNodes(t, 0)
	r := &Replayer{Kind: KindClosure}
	n.SetInterposer(r)
	a.Send("b", KindClosure, []byte("first"))
	if b.Pending() != 1 {
		t.Fatalf("first send delivered %d messages", b.Pending())
	}
	if !r.Recorded() {
		t.Fatal("replayer did not record")
	}
	a.Send("b", KindClosure, []byte("second"))
	if b.Pending() != 3 { // first + second + replayed-first
		t.Fatalf("after second send: %d pending, want 3", b.Pending())
	}
	b.Recv()
	b.Recv()
	m, _ := b.Recv()
	if !bytes.Equal(m.Payload, []byte("first")) {
		t.Fatalf("replayed payload = %q", m.Payload)
	}
}

func TestReorderer(t *testing.T) {
	n, a, b := twoNodes(t, 0)
	n.SetInterposer(&Reorderer{Kind: KindClosure})
	a.Send("b", KindClosure, []byte("A"))
	if b.Pending() != 0 {
		t.Fatal("reorderer leaked first message early")
	}
	a.Send("b", KindClosure, []byte("B"))
	m1, _ := b.Recv()
	m2, _ := b.Recv()
	if string(m1.Payload) != "B" || string(m2.Payload) != "A" {
		t.Fatalf("order = %q, %q, want B, A", m1.Payload, m2.Payload)
	}
}

func TestDropper(t *testing.T) {
	n, a, b := twoNodes(t, 0)
	n.SetInterposer(&Dropper{Kind: KindData, Every: 2})
	for i := 0; i < 4; i++ {
		a.Send("b", KindData, []byte{byte(i)})
	}
	if b.Pending() != 2 {
		t.Fatalf("dropper kept %d of 4, want 2", b.Pending())
	}
	// Every<=0 drops all.
	n.SetInterposer(&Dropper{Kind: KindData})
	a.Send("b", KindData, []byte("x"))
	if b.Pending() != 2 {
		t.Fatal("drop-all dropper leaked")
	}
}

func TestSpy(t *testing.T) {
	n, a, b := twoNodes(t, 0)
	spy := &Spy{}
	n.SetInterposer(spy)
	a.Send("b", KindData, []byte("secret-ciphertext"))
	if len(spy.Captured) != 1 || !bytes.Equal(spy.Captured[0], []byte("secret-ciphertext")) {
		t.Fatal("spy missed the packet")
	}
	if b.Pending() != 1 {
		t.Fatal("spy disturbed delivery")
	}
}

func TestChain(t *testing.T) {
	n, a, b := twoNodes(t, 0)
	spy := &Spy{}
	n.SetInterposer(Chain{spy, &Tamperer{Kind: KindData, Offset: 0, Bit: 0}})
	a.Send("b", KindData, []byte{0})
	m, _ := b.Recv()
	if m.Payload[0] != 1 {
		t.Fatal("chain did not tamper")
	}
	if len(spy.Captured) != 1 || spy.Captured[0][0] != 0 {
		t.Fatal("chain order wrong: spy should see pre-tamper bytes")
	}
}

func TestSetInterposerNilRestoresPassThrough(t *testing.T) {
	n, a, b := twoNodes(t, 0)
	n.SetInterposer(&Dropper{Kind: KindData})
	n.SetInterposer(nil)
	a.Send("b", KindData, []byte("x"))
	if b.Pending() != 1 {
		t.Fatal("nil interposer did not restore pass-through")
	}
}

// TestWireCountersAllocFree: mapping a message kind to its wire counters,
// which every traced send does first, allocates nothing, for each kind and
// for an unknown one.
func TestWireCountersAllocFree(t *testing.T) {
	known := 0
	if a := testing.AllocsPerRun(100, func() {
		for _, k := range []Kind{KindData, KindClosure, KindControl, Kind(9)} {
			if _, _, ok := wireCounters(k); ok {
				known++
			}
		}
	}); a != 0 {
		t.Fatalf("wireCounters allocates %v objects per round, want 0", a)
	}
	if known != 3*101 {
		t.Fatalf("%d kinds mapped in 101 rounds, want 3 per round", known)
	}
}
