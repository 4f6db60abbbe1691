package monitor

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"

	"mmt/internal/attest"
	"mmt/internal/channel"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/cursor"
	"mmt/internal/netsim"
	"mmt/internal/trace"
)

// Connection is the enclave manager's record of a live channel between a
// local and a remote enclave (§IV-C). The MMT key negotiated at connect
// time seeds the core.Conn whose counter/address floors implement the
// delegation protocol's replay and re-order defences.
type Connection struct {
	ID          string
	Local       EnclaveID
	PeerMonitor string // network name of the remote monitor
	PeerEnclave EnclaveID
	// ep runs the delegation protocol on the connection: the core.Conn,
	// and the outbound delegations awaiting acks with their PMOs.
	ep *channel.Closures[*PMO]
	// recv is the armed waiting PMO for the next inbound delegation.
	recv *PMO
	// Received queues PMOs accepted from the peer, oldest first.
	Received []*PMO
	// Acked counts completed outbound delegations.
	Acked int
}

// Conn exposes the underlying protocol connection (tests).
func (c *Connection) Conn() *core.Conn { return c.ep.Conn() }

// newConnection records a connection on m whose delegations run over
// conn. Every frame on it is routed by the connection id.
func (m *Monitor) newConnection(node *core.Node, id string, local EnclaveID, peer string, peerEnc EnclaveID, conn *core.Conn) *Connection {
	ep := channel.NewClosures[*PMO](m.endpoint, peer, m.ctl.Profile(), node, conn, route(id), "monitor: ")
	ep.SetTrace(m.ctl.Trace())
	c := &Connection{ID: id, Local: local, PeerMonitor: peer, PeerEnclave: peerEnc, ep: ep}
	m.conns[id] = c
	return c
}

// connectMsg is the control message used during connection setup. The
// report and ECDH shares establish who is on the other side; the rest
// mirrors Figure 6 step 1 (buffer negotiation).
type connectMsg struct {
	Type       string         `json:"type"`
	ConnID     string         `json:"conn_id"`
	Report     *attest.Report `json:"report"`
	ECDHPublic []byte         `json:"ecdh_public"`
	// ShareSig is the machine-key signature over (type, conn id, share):
	// the report attests the machine key, the signature binds this DH
	// share to it, so a man in the middle cannot substitute shares.
	ShareSig    []byte    `json:"share_sig"`
	Enclave     EnclaveID `json:"enclave"`
	PeerEnclave EnclaveID `json:"peer_enclave"`
	InitCounter uint64    `json:"init_counter"`
}

// shareDigest is what ShareSig signs.
func shareDigest(typ, connID string, share []byte) []byte {
	h := sha256.New()
	h.Write([]byte("mmt-connect-v1\x00"))
	h.Write([]byte(typ))
	h.Write([]byte{0})
	h.Write([]byte(connID))
	h.Write([]byte{0})
	h.Write(share)
	return h.Sum(nil)
}

// verifyConnectMsg checks the report against the authority and the share
// signature against the report's attested machine key.
func verifyConnectMsg(authority *ecdsa.PublicKey, m *connectMsg) error {
	if err := attest.VerifyReport(authority, m.Report); err != nil {
		return fmt.Errorf("monitor: peer attestation: %w", err)
	}
	mk, err := m.Report.MachineKey()
	if err != nil {
		return err
	}
	if !attest.VerifyDigest(mk, shareDigest(m.Type, m.ConnID, m.ECDHPublic), m.ShareSig) {
		return fmt.Errorf("monitor: key-exchange share not signed by the attested machine")
	}
	return nil
}

// route prefixes every frame on a connection, closure or ack, with the
// connection id: 2-byte little-endian length, then the id. Frames are
// binary, not JSON: in JSON, framing bytes no MAC covers could swallow
// the closure the protocol authenticates.
func route(connID string) []byte {
	w := cursor.Writer{Buf: make([]byte, 0, 2+len(connID))}
	w.U16(uint16(len(connID)))
	w.Raw([]byte(connID))
	return w.Buf
}

var errBadRoute = errors.New("monitor: malformed frame route")

// splitRoute is route's inverse: the connection id a frame is for, and
// the body behind it.
func splitRoute(b []byte) (connID string, body []byte, err error) {
	r := cursor.NewReader(b, errBadRoute)
	connID = string(r.Raw(int(r.U16())))
	body = r.Rest()
	return connID, body, r.Done()
}

// Connect establishes a delegation connection between a local enclave on
// monitor a and a remote enclave on monitor b, running the attestation-
// report exchange and MMT key agreement across the untrusted network. It
// returns the connection id, valid on both monitors.
//
// The two monitors live in one process here, so the handshake pumps the
// message queue inline; on real hardware each side runs its half in its
// own firmware.
func Connect(a *Monitor, aEnc EnclaveID, b *Monitor, bEnc EnclaveID, initCounter uint64) (string, error) {
	if a.endpoint == nil || b.endpoint == nil {
		return "", fmt.Errorf("monitor: both monitors must be attached to the network")
	}
	if a.report == nil || b.report == nil {
		return "", ErrNotAttested
	}
	if _, ok := a.enclaves[aEnc]; !ok {
		return "", ErrNoEnclave
	}
	if _, ok := b.enclaves[bEnc]; !ok {
		return "", ErrNoEnclave
	}

	// Each side generates an ECDH share; the shared secret becomes the MMT
	// key ("similar to the TLS handshake", §IV-B1).
	aPriv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return "", err
	}
	bPriv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return "", err
	}
	connID := fmt.Sprintf("%s/%d<->%s/%d#%d", a.endpoint.Name(), aEnc, b.endpoint.Name(), bEnc, len(a.conns))

	// a -> b: connect request with a's report and machine-signed ECDH share.
	aSig, err := a.machine.Sign(shareDigest("connect", connID, aPriv.PublicKey().Bytes()))
	if err != nil {
		return "", err
	}
	req := connectMsg{
		Type: "connect", ConnID: connID, Report: a.report,
		ECDHPublic: aPriv.PublicKey().Bytes(), ShareSig: aSig,
		Enclave: aEnc, PeerEnclave: bEnc,
		InitCounter: initCounter,
	}
	reqBytes, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	// The handshake is the root of a causal connect trace: minted at the
	// initiator, carried alongside both control messages, closed once a
	// verifies b's response.
	connectRoot := a.ctl.Trace().BeginSpan(a.ctl.Trace().NewTrace(), trace.PhaseConnect, a.ctl.Clock().Now())
	a.endpoint.SendOwned(b.endpoint.Name(), netsim.KindControl, reqBytes, connectRoot.Context())
	inbound, ok := b.endpoint.Recv()
	if !ok {
		return "", fmt.Errorf("monitor: connect request lost on the network")
	}
	var got connectMsg
	if err := json.Unmarshal(inbound.Payload, &got); err != nil || got.Type != "connect" {
		return "", fmt.Errorf("monitor: malformed connect request")
	}
	// b verifies a's attestation report and the binding of the DH share to
	// a's attested machine key before accepting the connection.
	if err := verifyConnectMsg(b.authority, &got); err != nil {
		return "", err
	}

	// b -> a: response with b's report and machine-signed share.
	bSig, err := b.machine.Sign(shareDigest("connect-ok", got.ConnID, bPriv.PublicKey().Bytes()))
	if err != nil {
		return "", err
	}
	resp := connectMsg{
		Type: "connect-ok", ConnID: got.ConnID, Report: b.report,
		ECDHPublic: bPriv.PublicKey().Bytes(), ShareSig: bSig,
		Enclave: bEnc, PeerEnclave: got.Enclave,
		InitCounter: got.InitCounter,
	}
	respBytes, err := json.Marshal(resp)
	if err != nil {
		return "", err
	}
	b.endpoint.SendOwned(inbound.From, netsim.KindControl, respBytes, inbound.Trace)
	back, ok := a.endpoint.Recv()
	if !ok {
		return "", fmt.Errorf("monitor: connect response lost on the network")
	}
	var gotResp connectMsg
	if err := json.Unmarshal(back.Payload, &gotResp); err != nil || gotResp.Type != "connect-ok" {
		return "", fmt.Errorf("monitor: malformed connect response")
	}
	if err := verifyConnectMsg(a.authority, &gotResp); err != nil {
		return "", err
	}

	// Derive the MMT key on both sides, from the *verified* wire shares.
	bPub, err := ecdh.X25519().NewPublicKey(gotResp.ECDHPublic)
	if err != nil {
		return "", err
	}
	aShared, err := aPriv.ECDH(bPub)
	if err != nil {
		return "", err
	}
	aPub, err := ecdh.X25519().NewPublicKey(got.ECDHPublic)
	if err != nil {
		return "", err
	}
	bShared, err := bPriv.ECDH(aPub)
	if err != nil {
		return "", err
	}
	key := mmtKeyFromShared(aShared)
	if key != mmtKeyFromShared(bShared) {
		return "", fmt.Errorf("monitor: key agreement mismatch")
	}

	// Both sides record the connection and arm a receive buffer. The
	// handshake itself charges no cycles (see ROADMAP: connection setup is
	// off the steady-state path): b's side is a zero-duration child marker
	// in the connect trace, and a's root span closes here, spanning the
	// full request/response round trip.
	b.ctl.Trace().CausalSpan(inbound.Trace, trace.PhaseConnect, b.ctl.Clock().Now(), b.ctl.Clock().Now(), 0)
	connectRoot.End(a.ctl.Clock().Now())
	ca := a.newConnection(a.node, connID, aEnc, b.endpoint.Name(), bEnc, core.NewConn(key, initCounter))
	cb := b.newConnection(b.node, connID, bEnc, a.endpoint.Name(), aEnc, core.NewConn(key, initCounter))
	if err := a.armReceive(ca); err != nil {
		return "", err
	}
	if err := b.armReceive(cb); err != nil {
		return "", err
	}
	return connID, nil
}

// mmtKeyFromShared derives the 128-bit MMT key from an ECDH secret.
func mmtKeyFromShared(shared []byte) crypt.Key {
	sum := sha256.Sum256(append([]byte("mmt-key-v1\x00"), shared...))
	var k crypt.Key
	copy(k[:], sum[:crypt.KeySize])
	return k
}

// armReceive allocates a waiting PMO for the next inbound delegation on c
// (Figure 6 step 2: the receiver sets the buffer's MMT state to waiting),
// unless one is armed already. The PMO is owned by the connection's local
// enclave.
func (m *Monitor) armReceive(c *Connection) error {
	if c.recv != nil {
		return nil
	}
	p, err := m.AllocPMO(c.Local)
	if err != nil {
		return fmt.Errorf("monitor: no receive buffer on %s: %w", c.ID, err)
	}
	mmt, err := m.node.Expect(p.Region, c.Conn())
	if err != nil {
		return err
	}
	p.mmt = mmt
	c.recv = p
	return nil
}

// Connection looks up a connection by id.
func (m *Monitor) Connection(id string) (*Connection, bool) {
	c, ok := m.conns[id]
	return c, ok
}

// sealPMO is the shared front of SendPMO and ExportPMO: resolve the
// connection and the caller's PMO, then seal its MMT into a closure,
// ledgering a stale counter as "<what> aborted before seal".
func (m *Monitor) sealPMO(caller EnclaveID, cap CapID, connID string, mode core.TransferMode, what string) (*Connection, *PMO, *core.Closure, error) {
	c, ok := m.conns[connID]
	if !ok {
		return nil, nil, nil, ErrNoConn
	}
	p, err := m.checkOwner(caller, cap)
	if err != nil {
		return nil, nil, nil, err
	}
	if p.mmt == nil {
		return nil, nil, nil, fmt.Errorf("monitor: PMO %d has no MMT", cap)
	}
	closure, err := c.ep.Seal(p.mmt, mode, what)
	return c, p, closure, err
}

// SendPMO delegates the PMO's MMT closure to the connection's peer
// (Figure 6 step 3). Owner only; the MMT must be valid. The closure goes
// onto the untrusted network; the sender's region is read-only until the
// peer's ack arrives (Pump processes it).
func (m *Monitor) SendPMO(caller EnclaveID, cap CapID, connID string, mode core.TransferMode) error {
	c, p, closure, err := m.sealPMO(caller, cap, connID, mode, "delegation")
	if err != nil {
		return err
	}
	c.ep.Send(p.mmt, closure, p)
	return nil
}

// Pump processes one pending network message: an inbound closure is
// verified and accepted into the armed waiting buffer (then acked), and an
// inbound ack completes the matching outbound delegation. It reports
// whether a message was processed. Delegation-protocol rejections
// (replay, re-order, tamper) are returned as errors but leave the monitor
// consistent: the waiting buffer stays armed.
func (m *Monitor) Pump() (bool, error) {
	msg, ok := m.endpoint.Recv()
	if !ok {
		return false, nil
	}
	if msg.Kind != netsim.KindClosure && msg.Kind != netsim.KindControl {
		return true, fmt.Errorf("monitor: unexpected message kind %v", msg.Kind)
	}
	connID, body, err := splitRoute(msg.Payload)
	if err != nil {
		return true, err
	}
	c, ok := m.conns[connID]
	if !ok {
		return true, ErrNoConn
	}
	if msg.Kind == netsim.KindControl {
		p, acked, err := c.ep.Complete(body)
		if err != nil {
			return true, fmt.Errorf("monitor: on %s: %w", connID, err)
		}
		if acked {
			c.Acked++
			m.releaseMoved(p)
		}
		return true, nil
	}
	if err := m.armReceive(c); err != nil {
		c.ep.Refuse(msg, body)
		return true, err
	}
	// Rejected: the delegation is nacked and the buffer stays armed.
	if err := c.ep.Accept(c.recv.mmt, msg, body, nil, nil); err != nil {
		return true, err
	}
	p, err := m.takeArmed(c)
	c.Received = append(c.Received, p)
	return true, err
}

// takeArmed hands over the armed buffer a closure was just installed in,
// and re-arms the connection if the pool allows it.
func (m *Monitor) takeArmed(c *Connection) (*PMO, error) {
	p := c.recv
	c.recv = nil
	if len(m.pool) == 0 {
		return p, nil
	}
	return p, m.armReceive(c)
}

// releaseMoved frees the local region of a PMO whose MMT an ownership
// transfer just invalidated: ownership left the machine, by ack or by
// export. An ownership copy keeps its (valid again) MMT and its region.
func (m *Monitor) releaseMoved(p *PMO) {
	if !p.mmt.ReadOnly() && p.mmt.State() == core.StateInvalid {
		delete(m.enclaves[p.Owner].caps, p.Cap)
		delete(m.pmos, p.Cap)
		m.pool = append(m.pool, p.Region)
	}
}

// PumpAll drains the inbox, returning the first error but continuing to
// drain (a rejected closure must not wedge later traffic).
func (m *Monitor) PumpAll() error {
	var first error
	for {
		processed, err := m.Pump()
		if err != nil && first == nil {
			first = err
		}
		if !processed {
			return first
		}
	}
}

// TakeReceived pops the oldest received PMO on a connection, if any.
func (m *Monitor) TakeReceived(connID string) (*PMO, bool) {
	c, ok := m.conns[connID]
	if !ok || len(c.Received) == 0 {
		return nil, false
	}
	p := c.Received[0]
	c.Received[0] = nil // the backing array outlives the pop; do not let it pin the PMO
	c.Received = c.Received[1:]
	return p, true
}
