package channel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/forest"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

var (
	testGeo = tree.Geometry{Arities: []int{2, 3, 4}} // 1536 B regions
	testKey = crypt.KeyFromBytes([]byte("channel-key"))
)

// rig is a two-node test fabric with all three channel types wired up.
type rig struct {
	net      *netsim.Network
	nsA, nsB *NonSecure
	scA, scB *Secure
	dgA, dgB *Delegation
}

func newRig(t testing.TB, latency sim.Time) *rig {
	t.Helper()
	prof := sim.Gem5Profile()
	prof.NetLatency = latency
	net := netsim.NewNetwork(latency)

	newNode := func(name string, id int) (*core.Node, *netsim.Endpoint) {
		ctl, err := engine.NewRegions(8, testGeo, nil, prof)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := net.Attach(name, ctl.Clock())
		if err != nil {
			t.Fatal(err)
		}
		return core.NewNode(forest.NodeID(id), ctl), ep
	}
	nodeA, epA := newNode("a", 1)
	nodeB, epB := newNode("b", 2)
	pool := []int{0, 1, 2, 3, 4, 5, 6, 7}
	mustSecure := func(ep *netsim.Endpoint, peer string) *Secure {
		sc, err := NewSecure(ep, peer, prof, testKey)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	return &rig{
		net: net,
		nsA: NewNonSecure(epA, "b", prof), nsB: NewNonSecure(epB, "a", prof),
		scA: mustSecure(epA, "b"), scB: mustSecure(epB, "a"),
		dgA: NewDelegation(epA, "b", prof, nodeA, core.NewConn(testKey, 0), pool),
		dgB: NewDelegation(epB, "a", prof, nodeB, core.NewConn(testKey, 0), pool),
	}
}

// Separate rigs per channel kind would be cleaner for endpoints, but the
// shared-endpoint design above intentionally mirrors one NIC carrying all
// traffic; tests below use one channel kind per rig instance.

func TestNonSecureRoundTrip(t *testing.T) {
	r := newRig(t, 0)
	msg := []byte("plaintext on the wire")
	if err := r.nsA.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := r.nsB.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip failed")
	}
	s := r.nsA.Stats()
	if s.Messages != 1 || s.Bytes != len(msg) || s.RemoteWrite == 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.Encrypt != 0 || s.Memcpy != 0 {
		t.Fatal("non-secure channel charged crypto costs")
	}
}

func TestNonSecureLeaksPlaintext(t *testing.T) {
	// The baseline really is unprotected: a spy sees the plaintext.
	r := newRig(t, 0)
	spy := &netsim.Spy{}
	r.net.SetInterposer(spy)
	msg := []byte("not a secret apparently")
	if err := r.nsA.Send(msg); err != nil {
		t.Fatal(err)
	}
	if len(spy.Captured) != 1 || !bytes.Contains(spy.Captured[0], msg) {
		t.Fatal("expected plaintext visible to the spy on the baseline channel")
	}
}

func TestSecureRoundTrip(t *testing.T) {
	r := newRig(t, 0)
	msg := bytes.Repeat([]byte("secret "), 100)
	if err := r.scA.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := r.scB.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip failed")
	}
	ss, rs := r.scA.Stats(), r.scB.Stats()
	if ss.Encrypt == 0 || ss.Memcpy == 0 || ss.RemoteWrite == 0 {
		t.Fatalf("sender stats missing costs: %+v", ss)
	}
	if rs.Decrypt == 0 || rs.Memcpy == 0 {
		t.Fatalf("receiver stats missing costs: %+v", rs)
	}
}

func TestSecureHidesPlaintext(t *testing.T) {
	r := newRig(t, 0)
	spy := &netsim.Spy{}
	r.net.SetInterposer(spy)
	msg := []byte("very secret message body")
	if err := r.scA.Send(msg); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(spy.Captured[0], msg) {
		t.Fatal("secure channel leaked plaintext")
	}
	if _, err := r.scB.Recv(); err != nil {
		t.Fatal(err)
	}
}

// TestSecureRejectsTamperReplayReorder: each rejected frame fails with its
// error and records its own ledger kind on the receiver.
func TestSecureRejectsTamperReplayReorder(t *testing.T) {
	traced := func(t *testing.T) (*rig, func(trace.EventKind)) {
		r, sink := newRig(t, 0), trace.NewSink()
		r.scB.SetTrace(sink.Probe("b"))
		return r, func(want trace.EventKind) {
			t.Helper()
			if evs := sink.SecEvents(); len(evs) == 0 || evs[len(evs)-1].Kind != want {
				t.Fatalf("ledger %+v, want a last event of kind %v", evs, want)
			}
		}
	}
	t.Run("tamper", func(t *testing.T) {
		r, recorded := traced(t)
		r.net.SetInterposer(&netsim.Tamperer{Kind: netsim.KindData, Offset: -1})
		if err := r.scA.Send([]byte("payload")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.scB.Recv(); !errors.Is(err, crypt.ErrAuth) {
			t.Fatalf("tampered: %v, want ErrAuth", err)
		}
		recorded(trace.EvAuthFail)
	})
	t.Run("replay", func(t *testing.T) {
		r, recorded := traced(t)
		r.net.SetInterposer(&netsim.Replayer{Kind: netsim.KindData})
		r.scA.Send([]byte("one"))
		r.scA.Send([]byte("two"))
		if _, err := r.scB.Recv(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.scB.Recv(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.scB.Recv(); err == nil {
			t.Fatal("replayed message accepted")
		}
		recorded(trace.EvReplayReject)
	})
	t.Run("reorder", func(t *testing.T) {
		r, recorded := traced(t)
		r.net.SetInterposer(&netsim.Reorderer{Kind: netsim.KindData})
		r.scA.Send([]byte("one"))
		r.scA.Send([]byte("two"))
		if _, err := r.scB.Recv(); err == nil {
			t.Fatal("re-ordered message accepted")
		}
		recorded(trace.EvReorderReject)
	})
}

// TestDrainAcksSkipsBadAck: a malformed ack ahead of the real one is
// dropped like a lost packet, and the real one still completes its send.
func TestDrainAcksSkipsBadAck(t *testing.T) {
	r := newRig(t, 0)
	if err := r.dgA.Send([]byte("fits in one closure")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.dgB.RecvMessage(); err != nil {
		t.Fatal(err)
	}
	r.dgA.stash = append(r.dgA.stash, netsim.Message{Kind: netsim.KindControl, Payload: []byte{9}})
	if err := r.dgA.DrainAcks(); !errors.Is(err, errBadAck) {
		t.Fatalf("DrainAcks: %v, want errBadAck reported", err)
	}
	if r.dgA.InFlight() != 0 || r.dgA.PoolFree() != 8 {
		t.Fatalf("after the real ack: %d in flight, %d regions free; want 0 and 8", r.dgA.InFlight(), r.dgA.PoolFree())
	}
}

func TestDelegationRoundTripSmall(t *testing.T) {
	r := newRig(t, 0)
	msg := []byte("fits in one closure")
	if err := r.dgA.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := r.dgB.RecvMessage()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip failed")
	}
	// Ack flows back and frees the sender's buffer.
	if err := r.dgA.DrainAcks(); err != nil {
		t.Fatal(err)
	}
	if r.dgA.InFlight() != 0 {
		t.Fatal("delegation still in flight after ack")
	}
	if r.dgA.PoolFree() != 8 {
		t.Fatalf("sender pool = %d, want 8 (region recycled)", r.dgA.PoolFree())
	}
	s := r.dgA.Stats()
	if s.Encrypt != 0 || s.Decrypt != 0 || s.Memcpy != 0 {
		t.Fatalf("delegation charged crypto/copy costs: %+v", s)
	}
	if s.RemoteWrite == 0 || s.Delegation == 0 {
		t.Fatalf("delegation missing wire costs: %+v", s)
	}
}

func TestDelegationMultiChunk(t *testing.T) {
	r := newRig(t, 0)
	msg := make([]byte, 4*testGeo.DataSize()+123)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	if err := r.dgA.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := r.dgB.RecvMessage()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("multi-chunk message corrupted")
	}
	if err := r.dgA.DrainAcks(); err != nil {
		t.Fatal(err)
	}
	if r.dgA.PoolFree() != 8 {
		t.Fatalf("pool = %d after acks, want 8", r.dgA.PoolFree())
	}
}

func TestDelegationStream(t *testing.T) {
	// Many messages over one connection: pool recycling plus monotone
	// counters/addresses must keep working.
	r := newRig(t, 0)
	for i := 0; i < 20; i++ {
		msg := bytes.Repeat([]byte{byte(i + 1)}, 200+i*37)
		if err := r.dgA.Send(msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		got, err := r.dgB.RecvMessage()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestDelegationHidesPlaintext(t *testing.T) {
	r := newRig(t, 0)
	spy := &netsim.Spy{}
	r.net.SetInterposer(spy)
	msg := bytes.Repeat([]byte("confidential block "), 20)
	if err := r.dgA.Send(msg); err != nil {
		t.Fatal(err)
	}
	for _, p := range spy.Captured {
		if bytes.Contains(p, msg[:19]) {
			t.Fatal("delegation leaked plaintext on the wire")
		}
	}
}

func TestDelegationRejectsTamper(t *testing.T) {
	r := newRig(t, 0)
	r.net.SetInterposer(&netsim.Tamperer{Kind: netsim.KindClosure, Offset: -1})
	if err := r.dgA.Send([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.dgB.Recv(); !errors.Is(err, engine.ErrIntegrity) {
		t.Fatalf("tampered closure: %v, want integrity failure", err)
	}
	// The nack travels back; the sender's next DrainAcks reports the
	// rejection and restores the buffer to valid.
	r.net.SetInterposer(nil)
	if err := r.dgA.DrainAcks(); !errors.Is(err, ErrClosed) {
		t.Fatalf("DrainAcks after nack: %v, want ErrClosed", err)
	}
	if r.dgA.InFlight() != 0 {
		t.Fatal("nacked delegation still in flight")
	}
}

func TestDelegationRejectsReplayedClosure(t *testing.T) {
	r := newRig(t, 0)
	r.net.SetInterposer(&netsim.Replayer{Kind: netsim.KindClosure})
	r.dgA.Send([]byte("one"))
	r.dgA.Send([]byte("two"))
	if _, err := r.dgB.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.dgB.Recv(); err != nil {
		t.Fatal(err)
	}
	// Third pending message is the replay of the first closure.
	if _, err := r.dgB.Recv(); !errors.Is(err, core.ErrReplay) {
		t.Fatalf("replayed closure: %v, want ErrReplay", err)
	}
}

func TestDelegationRejectsReorderedClosures(t *testing.T) {
	r := newRig(t, 0)
	r.net.SetInterposer(&netsim.Reorderer{Kind: netsim.KindClosure})
	r.dgA.Send([]byte("one"))
	r.dgA.Send([]byte("two"))
	// First delivery is "two" (accepted), then "one" (stale).
	if _, err := r.dgB.Recv(); err != nil {
		t.Fatal(err)
	}
	_, err := r.dgB.Recv()
	if !errors.Is(err, core.ErrReplay) && !errors.Is(err, core.ErrReorder) {
		t.Fatalf("re-ordered closure: %v, want replay/reorder rejection", err)
	}
}

func TestDelegationPoolExhaustion(t *testing.T) {
	prof := sim.Gem5Profile()
	net := netsim.NewNetwork(0)
	ctl, err := engine.NewRegions(2, testGeo, nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := net.Attach("solo", ctl.Clock())
	dg := NewDelegation(ep, "peer", prof, core.NewNode(1, ctl), core.NewConn(testKey, 0), []int{0})
	if err := dg.Send([]byte("uses the only region")); err != nil {
		t.Fatal(err)
	}
	// No ack will ever arrive (peer doesn't exist); next send starves.
	if err := dg.Send([]byte("x")); err == nil {
		t.Fatal("expected pool exhaustion")
	}
}

func TestDelegationCostConstantBelowCapacity(t *testing.T) {
	// Table IV: MMT delegation cost is flat for any payload under one
	// closure's capacity.
	r1 := newRig(t, 0)
	r1.dgA.Send(make([]byte, 16))
	small := r1.dgA.Stats().Total()

	r2 := newRig(t, 0)
	r2.dgA.Send(make([]byte, r2.dgA.Capacity()))
	big := r2.dgA.Stats().Total()

	if small != big {
		t.Fatalf("delegation cost varies below capacity: %v vs %v", small, big)
	}
}

func TestRecvOnEmptyChannels(t *testing.T) {
	r := newRig(t, 0)
	if _, err := r.nsB.Recv(); !errors.Is(err, ErrEmpty) {
		t.Fatal("non-secure Recv on empty should be ErrEmpty")
	}
	if _, err := r.scB.Recv(); !errors.Is(err, ErrEmpty) {
		t.Fatal("secure Recv on empty should be ErrEmpty")
	}
	if _, err := r.dgB.Recv(); !errors.Is(err, ErrEmpty) {
		t.Fatal("delegation Recv on empty should be ErrEmpty")
	}
}

func TestStatsResetAndClock(t *testing.T) {
	r := newRig(t, 0)
	before := r.nsA.Clock().Now()
	r.nsA.Send(make([]byte, 1<<20))
	if r.nsA.Clock().Now() <= before {
		t.Fatal("send did not advance the clock")
	}
	r.nsA.ResetStats()
	if r.nsA.Stats().Total() != 0 || r.nsA.Stats().Messages != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

// sendCrafted is sendChunk with the framing header under the caller's
// control: what a peer that holds the connection key, but does not run
// this code, can put on the wire. The closure around it is authentic.
func sendCrafted(t *testing.T, d *Delegation, magic, index, total, length uint32) {
	t.Helper()
	region, err := d.popRegion()
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, msgHeaderSize)
	for i, v := range []uint32{magic, index, total, length} {
		binary.LittleEndian.PutUint32(hdr[4*i:], v)
	}
	mem := d.node.Controller().Memory()
	mem.Write(mem.RegionBase(region), hdr)
	m, err := d.node.Acquire(region, d.conn.Key(), d.conn.NextCounter())
	if err != nil {
		t.Fatal(err)
	}
	closure, err := m.BeginSend(d.conn, core.OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	d.Closures.Send(m, closure, m)
}

// TestDelegationRejectsCraftedHeader: the framing header inside an
// authentic closure is still the peer's word. A Length beyond what one
// closure carries (it sizes Payload's read: up to 4 GiB allocated, then a
// line index past the region), an Index outside Total, or a wrong magic
// is refused before the ack — ErrBadClosure, a ledger verdict, the buffer
// back in the pool, the sender nacked — and the channel carries on.
func TestDelegationRejectsCraftedHeader(t *testing.T) {
	capacity := uint32(testGeo.DataSize() - msgHeaderSize)
	for _, tc := range []struct {
		name                        string
		magic, index, total, length uint32
		ok                          bool
	}{
		{"full chunk", msgMagic, 0, 1, capacity, true},
		{"last of three", msgMagic, 2, 3, 5, true},
		{"length one past capacity", msgMagic, 0, 1, capacity + 1, false},
		{"length 4 GiB", msgMagic, 0, 1, 0xFFFFFFFF, false},
		{"index equals total", msgMagic, 1, 1, 5, false},
		{"no chunks at all", msgMagic, 0, 0, 5, false},
		{"wrong magic", msgMagic + 1, 0, 1, 5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 0)
			sink := trace.NewSink()
			r.dgB.SetTrace(sink.Probe("b"))
			free := r.dgB.PoolFree()
			sendCrafted(t, r.dgA, tc.magic, tc.index, tc.total, tc.length)
			got, err := r.dgB.Recv()
			if tc.ok {
				if err != nil || got.Index != int(tc.index) || got.Total != int(tc.total) || got.Length != int(tc.length) {
					t.Fatalf("Recv = %+v, %v", got, err)
				}
				if p, err := got.Payload(); err != nil || len(p) != int(tc.length) {
					t.Fatalf("Payload = %d bytes, %v", len(p), err)
				}
				return
			}
			if !errors.Is(err, core.ErrBadClosure) || got != nil {
				t.Fatalf("Recv = %+v, %v, want ErrBadClosure", got, err)
			}
			if r.dgB.PoolFree() != free {
				t.Fatalf("receiver pool %d regions after the reject, want %d", r.dgB.PoolFree(), free)
			}
			if n := sink.Snapshot().Counter(trace.CtrClosuresRejected); n != 1 {
				t.Fatalf("%d rejections counted, want 1", n)
			}
			evs := sink.SecEvents()
			if len(evs) != 1 || evs[0].Kind != trace.EvMigrationReject || evs[0].Detail != "delegation: malformed closure" {
				t.Fatalf("ledger after the reject: %+v", evs)
			}
			if err := r.dgA.DrainAcks(); !errors.Is(err, ErrClosed) || r.dgA.InFlight() != 0 {
				t.Fatalf("sender after the nack: %v, %d in flight", err, r.dgA.InFlight())
			}
			msg := []byte("the channel still works")
			if err := r.dgA.Send(msg); err != nil {
				t.Fatal(err)
			}
			if back, err := r.dgB.RecvMessage(); err != nil || !bytes.Equal(back, msg) {
				t.Fatalf("round trip after the reject: %q, %v", back, err)
			}
		})
	}
}
