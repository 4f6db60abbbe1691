package monitor

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/json"
	"errors"
	"testing"

	"mmt/internal/attest"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/mem"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/tree"
)

var testGeo = tree.Geometry{Arities: []int{2, 3, 4}}

// world is a two-machine test universe: manufacturer, authority, two
// booted monitors on a shared network.
type world struct {
	auth *attest.Authority
	net  *netsim.Network
	a, b *Monitor
}

func newController(t testing.TB, regions int) *engine.Controller {
	t.Helper()
	m := mem.New(mem.Config{
		Size:          regions * testGeo.DataSize(),
		RegionSize:    testGeo.DataSize(),
		MetaPerRegion: testGeo.MetaSize(),
	})
	ctl, err := engine.New(m, testGeo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func newWorld(t *testing.T) *world {
	t.Helper()
	mfr, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	auth, err := attest.NewAuthority(mfr.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	meas := attest.MeasureSoftware([]byte("mmt monitor v1"))
	auth.AllowMeasurement(meas)

	w := &world{auth: auth, net: netsim.NewNetwork(0)}
	for i, name := range []string{"alpha", "beta"} {
		machine, err := mfr.Provision(name)
		if err != nil {
			t.Fatal(err)
		}
		mon := New(machine, meas, auth.PublicKey(), newController(t, 8))
		if err := mon.Boot(auth); err != nil {
			t.Fatalf("boot %s: %v", name, err)
		}
		if err := mon.AttachNetwork(w.net, name); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			w.a = mon
		} else {
			w.b = mon
		}
	}
	return w
}

func TestBootAssignsNodeIDs(t *testing.T) {
	w := newWorld(t)
	if w.a.NodeID() == 0 || w.b.NodeID() == 0 {
		t.Fatal("boot did not assign node ids")
	}
	if w.a.NodeID() == w.b.NodeID() {
		t.Fatal("two machines share a node id")
	}
	if w.a.Report() == nil {
		t.Fatal("no attestation report after boot")
	}
}

func TestBootRejectedWithoutPolicy(t *testing.T) {
	mfr, _ := attest.NewManufacturer()
	auth, _ := attest.NewAuthority(mfr.PublicKey())
	machine, _ := mfr.Provision("rogue")
	meas := attest.MeasureSoftware([]byte("unapproved stack"))
	mon := New(machine, meas, auth.PublicKey(), newController(t, 2))
	if err := mon.Boot(auth); err == nil {
		t.Fatal("boot with unapproved measurement succeeded")
	}
	if _, err := mon.AcquireMMT(1, 1, crypt.Key{}, 0); !errors.Is(err, ErrNotAttested) {
		t.Fatalf("AcquireMMT before boot: %v", err)
	}
}

func TestEnclaveAndPMOLifecycle(t *testing.T) {
	w := newWorld(t)
	e := w.a.CreateEnclave("worker", attest.MeasureSoftware([]byte("app")))
	free := w.a.PoolFree()
	p, err := w.a.AllocPMO(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if w.a.PoolFree() != free-1 {
		t.Fatal("pool not decremented")
	}
	mmt, err := w.a.AcquireMMT(e.ID, p.Cap, crypt.KeyFromBytes([]byte("k")), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mmt.WriteBytes(0, []byte("enclave data")); err != nil {
		t.Fatal(err)
	}
	if err := w.a.FreePMO(e.ID, p.Cap); err != nil {
		t.Fatal(err)
	}
	if w.a.PoolFree() != free {
		t.Fatal("pool not restored after FreePMO")
	}
	if _, err := w.a.PMOOf(e.ID, p.Cap); !errors.Is(err, ErrNoCap) {
		t.Fatal("capability survived FreePMO")
	}
}

func TestOwnershipEnforced(t *testing.T) {
	w := newWorld(t)
	owner := w.a.CreateEnclave("owner", attest.Measurement{})
	intruder := w.a.CreateEnclave("intruder", attest.Measurement{})
	p, err := w.a.AllocPMO(owner.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.a.AcquireMMT(intruder.ID, p.Cap, crypt.Key{}, 0); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("intruder AcquireMMT: %v, want ErrNotOwner", err)
	}
	if err := w.a.FreePMO(intruder.ID, p.Cap); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("intruder FreePMO: %v, want ErrNotOwner", err)
	}
}

// connect builds a booted connection between one enclave on each monitor.
func connect(t *testing.T, w *world) (connID string, ea, eb *Enclave) {
	t.Helper()
	ea = w.a.CreateEnclave("sender", attest.Measurement{})
	eb = w.b.CreateEnclave("receiver", attest.Measurement{})
	id, err := Connect(w.a, ea.ID, w.b, eb.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	return id, ea, eb
}

func TestConnectEstablishesSharedKey(t *testing.T) {
	w := newWorld(t)
	connID, _, _ := connect(t, w)
	ca, ok := w.a.Connection(connID)
	if !ok {
		t.Fatal("connection missing on a")
	}
	cb, ok := w.b.Connection(connID)
	if !ok {
		t.Fatal("connection missing on b")
	}
	if ca.Conn().Key() != cb.Conn().Key() {
		t.Fatal("endpoints disagree on the MMT key")
	}
}

func TestDelegationThroughMonitors(t *testing.T) {
	w := newWorld(t)
	connID, ea, eb := connect(t, w)

	p, err := w.a.AllocPMO(ea.ID)
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := w.a.Connection(connID)
	mmt, err := w.a.AcquireMMT(ea.ID, p.Cap, ca.Conn().Key(), ca.Conn().NextCounter())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("cross-machine secure payload")
	if err := mmt.WriteBytes(0, payload); err != nil {
		t.Fatal(err)
	}

	if err := w.a.SendPMO(ea.ID, p.Cap, connID, core.OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	if err := w.b.PumpAll(); err != nil { // receiver: accept + ack
		t.Fatal(err)
	}
	if err := w.a.PumpAll(); err != nil { // sender: process ack
		t.Fatal(err)
	}

	cb, _ := w.b.Connection(connID)
	held := cb.Received
	rp, ok := w.b.TakeReceived(connID)
	if !ok {
		t.Fatal("no PMO received on b")
	}
	if held[0] != nil {
		t.Fatal("the connection's queue still references the PMO it popped")
	}
	if rp.Owner != eb.ID {
		t.Fatalf("received PMO owned by %d, want %d", rp.Owner, eb.ID)
	}
	got, err := rp.MMT().ReadBytes(0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across monitors")
	}
	// Sender's PMO is gone (ownership transferred) and its region pooled.
	if _, err := w.a.PMOOf(ea.ID, p.Cap); !errors.Is(err, ErrNoCap) {
		t.Fatalf("sender cap survived ownership transfer: %v", err)
	}
	if ca, _ := w.a.Connection(connID); ca.Acked != 1 {
		t.Fatalf("Acked = %d, want 1", ca.Acked)
	}
}

func TestDelegationRejectedUnderTampering(t *testing.T) {
	w := newWorld(t)
	connID, ea, _ := connect(t, w)

	p, err := w.a.AllocPMO(ea.ID)
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := w.a.Connection(connID)
	mmt, err := w.a.AcquireMMT(ea.ID, p.Cap, ca.Conn().Key(), ca.Conn().NextCounter())
	if err != nil {
		t.Fatal(err)
	}
	if err := mmt.WriteBytes(0, []byte("to be tampered")); err != nil {
		t.Fatal(err)
	}

	// Tamper with the tail of the closure (ciphertext bytes).
	w.net.SetInterposer(&netsim.Tamperer{Kind: netsim.KindClosure, Offset: -10, Bit: 0})
	if err := w.a.SendPMO(ea.ID, p.Cap, connID, core.OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	if err := w.b.PumpAll(); err == nil {
		t.Fatal("tampered delegation accepted")
	}
	w.net.SetInterposer(nil)
	if err := w.a.PumpAll(); err != nil { // nack arrives
		t.Fatal(err)
	}
	// Sender recovered: MMT valid and writable again.
	if mmt.State() != core.StateValid {
		t.Fatalf("sender state after nack = %v", mmt.State())
	}
	if err := mmt.WriteBytes(0, []byte("retry")); err != nil {
		t.Fatalf("sender write after nack: %v", err)
	}
	// Retry without the attacker succeeds.
	if err := w.a.SendPMO(ea.ID, p.Cap, connID, core.OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	if err := w.b.PumpAll(); err != nil {
		t.Fatalf("retry rejected: %v", err)
	}
	if err := w.a.PumpAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.b.TakeReceived(connID); !ok {
		t.Fatal("retry did not deliver a PMO")
	}
}

func TestSendPMORequiresOwnership(t *testing.T) {
	w := newWorld(t)
	connID, ea, _ := connect(t, w)
	intruder := w.a.CreateEnclave("intruder", attest.Measurement{})
	p, err := w.a.AllocPMO(ea.ID)
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := w.a.Connection(connID)
	if _, err := w.a.AcquireMMT(ea.ID, p.Cap, ca.Conn().Key(), ca.Conn().NextCounter()); err != nil {
		t.Fatal(err)
	}
	if err := w.a.SendPMO(intruder.ID, p.Cap, connID, core.OwnershipTransfer); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("intruder SendPMO: %v, want ErrNotOwner", err)
	}
	if err := w.a.SendPMO(ea.ID, p.Cap, "no-such-conn", core.OwnershipTransfer); !errors.Is(err, ErrNoConn) {
		t.Fatalf("SendPMO on bad conn: %v, want ErrNoConn", err)
	}
}

func TestPoolExhaustion(t *testing.T) {
	w := newWorld(t)
	e := w.a.CreateEnclave("hog", attest.Measurement{})
	for {
		if _, err := w.a.AllocPMO(e.ID); err != nil {
			if !errors.Is(err, ErrPoolEmpty) {
				t.Fatalf("unexpected alloc error: %v", err)
			}
			break
		}
	}
	if w.a.PoolFree() != 0 {
		t.Fatal("pool not exhausted")
	}
}

func TestPipelinedDelegations(t *testing.T) {
	// Several delegations in flight on one connection before any pump —
	// acks are matched by global-unique address, so completion order is
	// robust even if the fabric re-orders control traffic.
	w := newWorld(t)
	connID, ea, _ := connect(t, w)
	ca, _ := w.a.Connection(connID)

	const n = 3
	caps := make([]CapID, n)
	for i := 0; i < n; i++ {
		p, err := w.a.AllocPMO(ea.ID)
		if err != nil {
			t.Fatal(err)
		}
		caps[i] = p.Cap
		mmt, err := w.a.AcquireMMT(ea.ID, p.Cap, ca.Conn().Key(), ca.Conn().NextCounter())
		if err != nil {
			t.Fatal(err)
		}
		if err := mmt.WriteBytes(0, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if err := w.a.SendPMO(ea.ID, p.Cap, connID, core.OwnershipTransfer); err != nil {
			t.Fatalf("pipelined send %d: %v", i, err)
		}
	}
	if err := w.b.PumpAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.a.PumpAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p, ok := w.b.TakeReceived(connID)
		if !ok {
			t.Fatalf("only %d of %d delegations arrived", i, n)
		}
		got, err := p.MMT().ReadBytes(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("delegation %d delivered out of order: %d", i, got[0])
		}
	}
	if ca.Acked != n {
		t.Fatalf("Acked = %d, want %d", ca.Acked, n)
	}
}

// mitm swaps the ECDH share in connect messages for the attacker's own —
// the classic man-in-the-middle against unauthenticated Diffie-Hellman.
type mitm struct{ t *testing.T }

func (m *mitm) Intercept(msg netsim.Message) []netsim.Message {
	if msg.Kind != netsim.KindControl {
		return []netsim.Message{msg}
	}
	var cm map[string]any
	if err := json.Unmarshal(msg.Payload, &cm); err != nil {
		return []netsim.Message{msg}
	}
	if t, _ := cm["type"].(string); t != "connect" && t != "connect-ok" {
		return []netsim.Message{msg}
	}
	evil, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		m.t.Fatal(err)
	}
	cm["ecdh_public"] = evil.PublicKey().Bytes()
	out, err := json.Marshal(cm)
	if err != nil {
		m.t.Fatal(err)
	}
	msg.Payload = out
	return []netsim.Message{msg}
}

func TestConnectRejectsShareSubstitution(t *testing.T) {
	w := newWorld(t)
	ea := w.a.CreateEnclave("sender", attest.Measurement{})
	eb := w.b.CreateEnclave("receiver", attest.Measurement{})
	w.net.SetInterposer(&mitm{t: t})
	if _, err := Connect(w.a, ea.ID, w.b, eb.ID, 0); err == nil {
		t.Fatal("man-in-the-middle key exchange accepted")
	}
	// Without the attacker the same parties connect fine.
	w.net.SetInterposer(nil)
	if _, err := Connect(w.a, ea.ID, w.b, eb.ID, 0); err != nil {
		t.Fatalf("clean connect after attack: %v", err)
	}
}

// FuzzRoute: splitRoute never panics on a frame off the wire; what it
// accepts is route(connID) ‖ body byte for byte, and route then splitRoute
// gives back the conn id and body. The committed corpus is a closure and an
// ack routed by a Connect-style id, and their truncations inside the id.
func FuzzRoute(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		connID, body, err := splitRoute(frame)
		if err != nil {
			if !errors.Is(err, errBadRoute) {
				t.Fatalf("reject with %v", err)
			}
		} else if !bytes.Equal(append(route(connID), body...), frame) {
			t.Fatalf("accepted %x as %q ‖ %x", frame, connID, body)
		}
		id := string(frame[:min(len(frame), 0xFFFF)])
		if got, back, err := splitRoute(append(route(id), frame...)); err != nil || got != id || !bytes.Equal(back, frame) {
			t.Fatalf("route(%q) ‖ %x came back as %q ‖ %x, %v", id, frame, got, back, err)
		}
	})
}
