package monitor

import (
	"bytes"
	"cmp"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mmt/internal/attest"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

var testGeo = tree.Geometry{Arities: []int{2, 3, 4}}

// world is a two-machine test universe: manufacturer, authority, two
// booted monitors on a shared network.
type world struct {
	auth     *attest.Authority
	net      *netsim.Network
	a, b     *Monitor
	machines [2]*attest.Machine
	meas     attest.Measurement
}

func newController(t testing.TB, regions int) *engine.Controller {
	t.Helper()
	ctl, err := engine.NewRegions(regions, testGeo, nil, sim.Gem5Profile())
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

	w := &world{auth: auth, net: netsim.NewNetwork(0), meas: meas}
	for i, name := range []string{"alpha", "beta"} {
		machine, err := mfr.Provision(name)
		if err != nil {
			t.Fatal(err)
		}
		w.machines[i] = machine
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

// mitm rewrites connect messages in flight, leaving every other field as
// the sender wrote it: edit changes the decoded message.
type mitm struct {
	t    *testing.T
	edit func(*connectMsg)
}

func (m *mitm) Intercept(msg netsim.Message) []netsim.Message {
	var cm connectMsg
	if msg.Kind != netsim.KindControl || json.Unmarshal(msg.Payload, &cm) != nil || cm.Type != "connect" && cm.Type != "connect-ok" {
		return []netsim.Message{msg}
	}
	m.edit(&cm)
	out, err := json.Marshal(cm)
	if err != nil {
		m.t.Fatal(err)
	}
	msg.Payload = out
	return []netsim.Message{msg}
}

// TestConnectRejectsShareSubstitution: a man in the middle who swaps the
// ECDH share for its own (the classic attack on unauthenticated
// Diffie-Hellman) fails the share signature, and one who edits the
// attestation report fails the report check; without the attacker the
// same parties connect.
func TestConnectRejectsShareSubstitution(t *testing.T) {
	evil, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		edit       func(*connectMsg)
	}{
		{"share substituted", "not signed by the attested machine", func(cm *connectMsg) { cm.ECDHPublic = evil.PublicKey().Bytes() }},
		{"report edited", "peer attestation", func(cm *connectMsg) { r := *cm.Report; r.NodeID++; cm.Report = &r }},
	} {
		w := newWorld(t)
		ea := w.a.CreateEnclave("sender", attest.Measurement{})
		eb := w.b.CreateEnclave("receiver", attest.Measurement{})
		w.net.SetInterposer(&mitm{t: t, edit: c.edit})
		if _, err := Connect(w.a, ea.ID, w.b, eb.ID, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: connect %v, want an error saying %q", c.name, err, c.want)
		}
		w.net.SetInterposer(nil)
		if _, err := Connect(w.a, ea.ID, w.b, eb.ID, 0); err != nil {
			t.Fatalf("%s: clean connect after the attack: %v", c.name, err)
		}
	}
}

// TestPumpRefusesBadAck: an ack frame whose body is not an ack is an
// error out of Pump, not a silently dropped frame.
func TestPumpRefusesBadAck(t *testing.T) {
	w := newWorld(t)
	connID, _, _ := connect(t, w)
	w.b.endpoint.Send(w.a.endpoint.Name(), netsim.KindControl, append(route(connID), 7))
	if handled, err := w.a.Pump(); !handled || err == nil {
		t.Fatalf("Pump of a one-byte ack: handled %v, err %v; want an error", handled, err)
	}
}

// TestFreePMORecordsCapDestroy: freeing a PMO records the capability's
// destruction in the ledger.
func TestFreePMORecordsCapDestroy(t *testing.T) {
	w := newWorld(t)
	sink := trace.NewSink()
	w.a.ctl.SetTrace(sink.Probe("alpha"))
	e := w.a.CreateEnclave("worker", attest.MeasureSoftware([]byte("app")))
	p, err := w.a.AllocPMO(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.a.FreePMO(e.ID, p.Cap); err != nil {
		t.Fatal(err)
	}
	if ev := sink.SecEvents(); len(ev) != 1 || ev[0].Kind != trace.EvCapDestroy {
		t.Fatalf("ledger %+v, want one capability destroyed", ev)
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

// TestSnapshotOrder: a snapshot lists enclaves and connections by id and
// MMTs by region,
// whatever order the monitor's maps and capability numbers hold them in —
// here a freed region is reused by the last capability, so capability
// order and region order disagree.
func TestSnapshotOrder(t *testing.T) {
	w := newWorld(t)
	for range 3 {
		connect(t, w)
	}
	var e *Enclave
	for i := range 3 {
		e = w.a.CreateEnclave(fmt.Sprintf("worker-%d", i), attest.Measurement{})
	}
	var caps []CapID
	for range w.a.PoolFree() {
		p, err := w.a.AllocPMO(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, p.Cap)
	}
	if err := w.a.FreePMO(e.ID, caps[0]); err != nil {
		t.Fatal(err)
	}
	p, err := w.a.AllocPMO(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(caps[1:], p.Cap) {
		if _, err := w.a.AcquireMMT(e.ID, c, crypt.KeyFromBytes([]byte("k")), 1); err != nil {
			t.Fatal(err)
		}
	}
	s, err := w.a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSortedFunc(s.Conns, func(a, b ConnRec) int { return strings.Compare(a.ID, b.ID) }) || len(s.Conns) != 3 {
		t.Fatalf("connections %+v, want three in id order", s.Conns)
	}
	if !slices.IsSortedFunc(s.Enclaves, func(a, b EnclaveRec) int { return cmp.Compare(a.ID, b.ID) }) || len(s.Enclaves) != 6 {
		t.Fatalf("enclaves %+v, want six in id order", s.Enclaves)
	}
	if !slices.IsSortedFunc(s.MMTs, func(a, b MMTRec) int { return cmp.Compare(a.Region, b.Region) }) || len(s.MMTs) != len(caps)+3 {
		t.Fatalf("MMTs %+v, want %d (three armed receive buffers) in region order", s.MMTs, len(caps)+3)
	}
}

// TestRestoreRejectsForgedReport: a snapshot whose attestation report the
// authority did not sign (its node id moved in the report and the
// snapshot alike, so only the signature disagrees) does not restore.
func TestRestoreRejectsForgedReport(t *testing.T) {
	w := newWorld(t)
	s, err := w.a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restore := func(s *Snapshot) error {
		mon := New(w.machines[0], w.meas, w.auth.PublicKey(), newController(t, 8))
		if err := mon.AttachNetwork(netsim.NewNetwork(0), "alpha"); err != nil {
			t.Fatal(err)
		}
		return mon.Restore(s)
	}
	if err := restore(s); err != nil {
		t.Fatalf("genuine snapshot: %v", err)
	}
	r := *s.Report
	r.NodeID++
	s.Report, s.NodeID = &r, r.NodeID
	if err := restore(s); err == nil {
		t.Fatal("snapshot with a forged report restored")
	}
}

// TestExportImportLedger: an exported closure records a migration send on
// the exporter and, imported, a migration accept on the importer.
func TestExportImportLedger(t *testing.T) {
	w := newWorld(t)
	sa, sb := trace.NewSink(), trace.NewSink()
	w.a.ctl.SetTrace(sa.Probe("alpha"))
	w.b.ctl.SetTrace(sb.Probe("beta"))
	connID, ea, _ := connect(t, w)
	p, err := w.a.AllocPMO(ea.ID)
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := w.a.Connection(connID)
	if _, err := w.a.AcquireMMT(ea.ID, p.Cap, ca.Conn().Key(), ca.Conn().NextCounter()); err != nil {
		t.Fatal(err)
	}
	wire, err := w.a.ExportPMO(ea.ID, p.Cap, connID, core.OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.b.ImportClosure(connID, wire); err != nil {
		t.Fatal(err)
	}
	last := func(s *trace.Sink) trace.EventKind {
		ev := s.SecEvents()
		if len(ev) == 0 {
			t.Fatal("empty ledger")
		}
		return ev[len(ev)-1].Kind
	}
	if a, b := last(sa), last(sb); a != trace.EvMigrationSend || b != trace.EvMigrationAccept {
		t.Fatalf("ledgers end in %v and %v, want a migration send and accept", a, b)
	}
}
