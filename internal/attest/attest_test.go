package attest

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"mmt/internal/netsim"
	"mmt/internal/sim"
)

// fixture builds a manufacturer, an authority trusting it, a provisioned
// machine and its software measurement (whitelisted).
func fixture(t *testing.T) (*Manufacturer, *Authority, *Machine, Measurement) {
	t.Helper()
	mfr, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	auth, err := NewAuthority(mfr.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	machine, err := mfr.Provision("node-a")
	if err != nil {
		t.Fatal(err)
	}
	meas := MeasureSoftware([]byte("trusted monitor v1"))
	auth.AllowMeasurement(meas)
	return mfr, auth, machine, meas
}

func newNodeSession(t *testing.T, m *Machine, meas Measurement, auth *Authority) *NodeSession {
	t.Helper()
	ns, err := NewNodeSession(m, meas, "rack-1", auth.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func TestAttestationHappyPath(t *testing.T) {
	_, auth, machine, meas := fixture(t)
	ns := newNodeSession(t, machine, meas, auth)
	id, report, err := Run(ns, auth)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("node id 0 issued")
	}
	if report.NodeID != id || report.Subject != "node-a" || report.Measurement != meas {
		t.Fatalf("report fields wrong: %+v", report)
	}
	if err := VerifyReport(auth.PublicKey(), report); err != nil {
		t.Fatalf("issued report does not verify: %v", err)
	}
}

func TestNodeIDsUniqueAndIncreasing(t *testing.T) {
	mfr, auth, _, meas := fixture(t)
	seen := map[uint16]bool{}
	for i := 0; i < 5; i++ {
		m, err := mfr.Provision("node")
		if err != nil {
			t.Fatal(err)
		}
		ns := newNodeSession(t, m, meas, auth)
		id, _, err := Run(ns, auth)
		if err != nil {
			t.Fatal(err)
		}
		if seen[uint16(id)] {
			t.Fatalf("node id %d issued twice", id)
		}
		seen[uint16(id)] = true
	}
}

func TestUnknownMeasurementRejected(t *testing.T) {
	_, auth, machine, _ := fixture(t)
	rogue := MeasureSoftware([]byte("rootkit"))
	ns := newNodeSession(t, machine, rogue, auth)
	_, _, err := Run(ns, auth)
	if !errors.Is(err, ErrMeasurement) {
		t.Fatalf("rogue measurement: %v, want ErrMeasurement", err)
	}
}

func TestForgedCertificateRejected(t *testing.T) {
	_, auth, _, meas := fixture(t)
	// A machine provisioned by a different (rogue) manufacturer.
	rogueMfr, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	rogueMachine, err := rogueMfr.Provision("node-evil")
	if err != nil {
		t.Fatal(err)
	}
	ns := newNodeSession(t, rogueMachine, meas, auth)
	_, _, err = Run(ns, auth)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("rogue manufacturer: %v, want ErrRejected", err)
	}
}

func TestTamperedCertificateRejected(t *testing.T) {
	mfr, _, machine, _ := fixture(t)
	cert := machine.Cert
	cert.Subject = "node-imposter"
	if _, err := VerifyCertificate(mfr.PublicKey(), &cert); err == nil {
		t.Fatal("tampered certificate verified")
	}
}

func TestStolenCertificateWithoutKeyRejected(t *testing.T) {
	// An attacker replays node-a's (public) certificate but cannot sign
	// the transcript with node-a's machine key.
	mfr, auth, victim, meas := fixture(t)
	attacker, err := mfr.Provision("node-b")
	if err != nil {
		t.Fatal(err)
	}
	attacker.Cert = victim.Cert // stolen certificate, wrong private key
	ns := newNodeSession(t, attacker, meas, auth)
	_, _, err = Run(ns, auth)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("stolen certificate: %v, want ErrRejected", err)
	}
}

func TestReportForgeryRejected(t *testing.T) {
	_, auth, machine, meas := fixture(t)
	ns := newNodeSession(t, machine, meas, auth)
	_, report, err := Run(ns, auth)
	if err != nil {
		t.Fatal(err)
	}
	forged := *report
	forged.NodeID++
	if err := VerifyReport(auth.PublicKey(), &forged); err == nil {
		t.Fatal("forged report verified")
	}
	other, _ := NewAuthority(auth.manufacturer)
	if err := VerifyReport(other.PublicKey(), report); err == nil {
		t.Fatal("report verified under wrong authority")
	}
}

func TestProtocolRejectsGarbageMessages(t *testing.T) {
	_, auth, machine, meas := fixture(t)
	ns := newNodeSession(t, machine, meas, auth)
	as, err := auth.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.OnHello([]byte("not json")); err == nil {
		t.Error("garbage hello accepted")
	}
	if _, err := as.OnEvidence([]byte(`{"type":"evidence"}`)); err == nil {
		t.Error("empty evidence accepted")
	}
	if _, err := ns.OnServerHello([]byte(`{"type":"wrong"}`)); err == nil {
		t.Error("wrong-type server hello accepted")
	}
	if _, _, err := ns.OnGrant([]byte(`{"type":"grant"}`)); err == nil {
		t.Error("grant before key agreement accepted")
	}
}

func TestAttestationOverUntrustedNetwork(t *testing.T) {
	// Full protocol across netsim with a passive spy: it must succeed, and
	// the spy must never see the measurement in cleartext.
	_, auth, machine, meas := fixture(t)
	ns := newNodeSession(t, machine, meas, auth)
	as, err := auth.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	net := netsim.NewNetwork(1e-6)
	nodeEP, _ := net.Attach("node", sim.NewClock(0))
	authEP, _ := net.Attach("authority", sim.NewClock(0))
	spy := &netsim.Spy{}
	net.SetInterposer(spy)

	send := func(from *netsim.Endpoint, to string, b []byte) []byte {
		from.Send(to, netsim.KindControl, b)
		var dst *netsim.Endpoint
		if to == "authority" {
			dst = authEP
		} else {
			dst = nodeEP
		}
		m, ok := dst.Recv()
		if !ok {
			t.Fatal("message lost")
		}
		return m.Payload
	}

	hello, err := ns.Hello()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := as.OnHello(send(nodeEP, "authority", hello))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ns.OnServerHello(send(authEP, "node", sh))
	if err != nil {
		t.Fatal(err)
	}
	grant, err := as.OnEvidence(send(nodeEP, "authority", ev))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := ns.OnGrant(send(authEP, "node", grant))
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("no node id")
	}

	for _, captured := range spy.Captured {
		if strings.Contains(string(captured), "rack-1") {
			t.Fatal("node metadata leaked in cleartext on the wire")
		}
	}
	if len(spy.Captured) != 4 {
		t.Fatalf("spy saw %d messages, want 4", len(spy.Captured))
	}
}

func TestSessionKeysAgree(t *testing.T) {
	_, auth, machine, meas := fixture(t)
	ns := newNodeSession(t, machine, meas, auth)
	as, err := auth.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	hello, _ := ns.Hello()
	sh, err := as.OnHello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.OnServerHello(sh); err != nil {
		t.Fatal(err)
	}
	if ns.SessionKey() != as.session {
		t.Fatal("ECDH endpoints derived different session keys")
	}
	var zero [32]byte
	if ns.SessionKey() == zero {
		t.Fatal("session key is zero")
	}
}

func TestMeasureSoftwareDeterministic(t *testing.T) {
	if MeasureSoftware([]byte("a")) != MeasureSoftware([]byte("a")) {
		t.Fatal("measurement not deterministic")
	}
	if MeasureSoftware([]byte("a")) == MeasureSoftware([]byte("b")) {
		t.Fatal("measurement collision")
	}
}

func TestEvidenceBoundToSession(t *testing.T) {
	// Cut-and-paste attack: evidence produced for one attestation session
	// must not be accepted by another (the machine-key signature covers
	// the session transcript).
	_, auth, machine, meas := fixture(t)
	ns := newNodeSession(t, machine, meas, auth)
	as1, err := auth.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	hello, _ := ns.Hello()
	sh, err := as1.OnHello(hello)
	if err != nil {
		t.Fatal(err)
	}
	evidence, err := ns.OnServerHello(sh)
	if err != nil {
		t.Fatal(err)
	}
	// A second authority session with a different ECDH share sees the
	// same hello but must reject the first session's evidence.
	as2, err := auth.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as2.OnHello(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := as2.OnEvidence(evidence); err == nil {
		t.Fatal("evidence from another session accepted")
	}
	// The original session still works.
	if _, err := as1.OnEvidence(evidence); err != nil {
		t.Fatalf("legitimate evidence rejected: %v", err)
	}
}

func TestGrantUnreadableByEavesdropper(t *testing.T) {
	// The grant (node id + report) travels under the session key; a third
	// party replaying it into its own session cannot decrypt it.
	_, auth, machine, meas := fixture(t)
	ns := newNodeSession(t, machine, meas, auth)
	as, err := auth.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	hello, _ := ns.Hello()
	sh, _ := as.OnHello(hello)
	ev, err := ns.OnServerHello(sh)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := as.OnEvidence(ev)
	if err != nil {
		t.Fatal(err)
	}
	// A different node session (different ECDH keys) cannot open it.
	other := newNodeSession(t, machine, meas, auth)
	oHello, _ := other.Hello()
	oAS, _ := auth.NewSession()
	oSH, _ := oAS.OnHello(oHello)
	if _, err := other.OnServerHello(oSH); err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.OnGrant(grant); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("grant under the wrong session key: err %v, want ErrBadMessage", err)
	}
	// The right session can.
	if _, _, err := ns.OnGrant(grant); err != nil {
		t.Fatalf("legitimate grant rejected: %v", err)
	}
}

// TestGrantWithForgedReportRejected: a grant that opens under the session
// key but carries a report the authority did not sign (its node id moved
// in both places, so only the signature disagrees) is refused.
func TestGrantWithForgedReportRejected(t *testing.T) {
	_, auth, machine, meas := fixture(t)
	ns := newNodeSession(t, machine, meas, auth)
	as, err := auth.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	hello, _ := ns.Hello()
	sh, _ := as.OnHello(hello)
	ev, err := ns.OnServerHello(sh)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := as.OnEvidence(ev)
	if err != nil {
		t.Fatal(err)
	}
	var g grantMsg
	var info grantInfo
	if err := json.Unmarshal(grant, &g); err != nil {
		t.Fatal(err)
	}
	if err := unseal(ns.SessionKey(), g.Sealed, &info); err != nil {
		t.Fatal(err)
	}
	info.NodeID++
	info.Report.NodeID++
	if g.Sealed, err = seal(ns.SessionKey(), info); err != nil {
		t.Fatal(err)
	}
	forged, _ := json.Marshal(g)
	if _, _, err := ns.OnGrant(forged); err == nil {
		t.Fatal("grant with a forged report accepted")
	}
}

// TestRestoreMachineChecksCertificate: a persisted machine identity is
// refused when its certificate is not the manufacturer's, does not certify
// the restored key, or names another machine.
func TestRestoreMachineChecksCertificate(t *testing.T) {
	mfr, _, machine, _ := fixture(t)
	key, err := machine.MarshalKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreMachine(mfr.PublicKey(), "node-a", key, machine.Cert); err != nil {
		t.Fatalf("genuine identity refused: %v", err)
	}
	other, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := mfr.Provision("node-b")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		mfr  *Manufacturer
		name string
		cert Certificate
	}{
		"other manufacturer": {other, "node-a", machine.Cert},
		"another key's cert": {mfr, "node-a", stranger.Cert},
		"another name":       {mfr, "node-b", machine.Cert},
	} {
		if m, err := RestoreMachine(c.mfr.PublicKey(), c.name, key, c.cert); err == nil || m != nil {
			t.Errorf("%s: machine %v, err %v; want refused", name, m != nil, err)
		}
	}
}

// TestAuthorityStateSorted: the whitelist is a map, and MarshalState
// writes it in measurement order, so two snapshots of one authority are
// equal byte for byte.
func TestAuthorityStateSorted(t *testing.T) {
	_, auth, _, _ := fixture(t)
	for i := range 8 {
		auth.AllowMeasurement(MeasureSoftware([]byte{byte(i)}))
	}
	st, err := auth.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSortedFunc(st.Policy, func(a, b Measurement) int { return bytes.Compare(a[:], b[:]) }) {
		t.Fatal("policy not in measurement order")
	}
}
