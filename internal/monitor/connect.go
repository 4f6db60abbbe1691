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
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/cursor"
	"mmt/internal/netsim"
	"mmt/internal/sim"
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
	conn        *core.Conn
	// recv is the armed waiting PMO for the next inbound delegation.
	recv *PMO
	// pending maps in-flight delegations (by MMT global-unique address)
	// to their PMOs; several may be pipelined on one connection.
	pending map[uint64]*PMO
	// pendingSpan holds the open causal root span of each in-flight
	// delegation, keyed like pending. Lazily allocated; absent when
	// tracing is disabled (snapshots never serialize it).
	pendingSpan map[uint64]*trace.ActiveSpan
	// Received queues PMOs accepted from the peer, oldest first.
	Received []*PMO
	// Acked counts completed outbound delegations.
	Acked int
}

// Conn exposes the underlying protocol connection (tests).
func (c *Connection) Conn() *core.Conn { return c.conn }

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

type ackMsg struct {
	Type   string `json:"type"`
	ConnID string `json:"conn_id"`
	OK     bool   `json:"ok"`
	// GUAddr names the delegation being acknowledged, so acks survive
	// adversarial re-ordering without completing the wrong transfer.
	GUAddr uint64 `json:"guaddr"`
}

// closure frames are binary, not JSON: a closure is bulk data whose bytes
// the delegation protocol itself authenticates, and wrapping it in JSON
// would make unrelated framing bytes (not covered by any MAC) able to
// swallow the whole message. Layout: 2-byte conn-id length, conn id, wire.
// The closure is encoded straight into the frame, so the region's bytes
// are copied once on their way to the network; the reservation is the
// frame's prefix and the closure's metadata, and the data chunk grows it
// (core.Closure.AppendTo says why).
func encodeClosureFrame(connID string, closure *core.Closure) []byte {
	w := cursor.Writer{Buf: make([]byte, 0, 2+len(connID)+closure.MetadataSize())}
	w.U16(uint16(len(connID)))
	w.Raw([]byte(connID))
	closure.AppendTo(&w)
	return w.Buf
}

var errBadFrame = errors.New("monitor: malformed closure frame")

func decodeClosureFrame(b []byte) (connID string, wire []byte, err error) {
	r := cursor.NewReader(b, errBadFrame)
	connID = string(r.Raw(int(r.U16())))
	wire = r.Rest()
	return connID, wire, r.Done()
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
	ca := &Connection{ID: connID, Local: aEnc, PeerMonitor: b.endpoint.Name(), PeerEnclave: bEnc,
		conn: core.NewConn(key, initCounter), pending: make(map[uint64]*PMO)}
	cb := &Connection{ID: connID, Local: bEnc, PeerMonitor: a.endpoint.Name(), PeerEnclave: aEnc,
		conn: core.NewConn(key, initCounter), pending: make(map[uint64]*PMO)}
	a.conns[connID] = ca
	b.conns[connID] = cb
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
// (Figure 6 step 2: the receiver sets the buffer's MMT state to waiting).
// The PMO is owned by the connection's local enclave.
func (m *Monitor) armReceive(c *Connection) error {
	p, err := m.AllocPMO(c.Local)
	if err != nil {
		return err
	}
	mmt, err := m.node.Expect(p.Region, c.conn)
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

// beginSend is the shared front of SendPMO and ExportPMO: resolve the
// connection and the caller's PMO, then seal its MMT into a closure. A
// send the connection's counter floor has overtaken is ledgered under
// the caller's detail string.
func (m *Monitor) beginSend(caller EnclaveID, cap CapID, connID string, mode core.TransferMode, staleDetail string) (*Connection, *PMO, *core.Closure, error) {
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
	closure, err := p.mmt.BeginSend(c.conn, mode)
	if errors.Is(err, core.ErrStaleCounter) {
		m.ctl.Trace().Event(trace.EvStaleCounter, m.ctl.Clock().Now(), p.mmt.GUAddr(), staleDetail)
	}
	return c, p, closure, err
}

// SendPMO delegates the PMO's MMT closure to the connection's peer
// (Figure 6 step 3). Owner only; the MMT must be valid. The closure goes
// onto the untrusted network; the sender's region is read-only until the
// peer's ack arrives (Pump processes it).
func (m *Monitor) SendPMO(caller EnclaveID, cap CapID, connID string, mode core.TransferMode) error {
	c, p, closure, err := m.beginSend(caller, cap, connID, mode, "monitor: delegation aborted before seal")
	if err != nil {
		return err
	}
	c.pending[p.mmt.GUAddr()] = p
	frame := encodeClosureFrame(connID, closure)
	// Charge the NIC/DMA serialization and the fixed delegation cost to
	// this machine's clock, exactly as the channel layer does. The send is
	// the root of this migration's causal trace; the root span stays open
	// until the peer's ack or nack arrives (Pump's KindControl branch).
	probe := m.ctl.Trace()
	root := probe.BeginSpan(probe.NewTrace(), trace.PhaseSend, m.ctl.Clock().Now())
	probe.Count(trace.CtrClosuresSent, 1)
	probe.Count(trace.CtrClosureEncodeBytes, uint64(len(frame)))
	prof := m.ctl.Profile()
	dma := prof.RemoteWriteCost(len(frame))
	probe.AddCycles(trace.PhaseDMA, dma)
	probe.AddCycles(trace.PhaseDelegation, prof.DelegationFixed)
	probe.RecordOp(trace.OpMigrationSend, dma+prof.DelegationFixed)
	root.AddCycles(dma + prof.DelegationFixed)
	m.ctl.Clock().AdvanceCycles(dma + prof.DelegationFixed)
	m.endpoint.SendOwned(c.PeerMonitor, netsim.KindClosure, frame, root.Context())
	probe.Event(trace.EvMigrationSend, m.ctl.Clock().Now(), p.mmt.GUAddr(), "monitor: closure on wire")
	if root != nil {
		if c.pendingSpan == nil {
			c.pendingSpan = make(map[uint64]*trace.ActiveSpan)
		}
		c.pendingSpan[p.mmt.GUAddr()] = root
	}
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
	switch msg.Kind {
	case netsim.KindClosure:
		connID, wire, err := decodeClosureFrame(msg.Payload)
		if err != nil {
			return true, err
		}
		probe := m.ctl.Trace()
		// Child of the migration root carried in the message metadata; a
		// receiver of untraced traffic roots a local trace instead.
		ctx := msg.Trace
		if !ctx.Valid() {
			ctx = probe.NewTrace()
		}
		sp := probe.BeginSpan(ctx, trace.PhaseRecv, m.ctl.Clock().Now())
		probe.Count(trace.CtrClosureDecodeBytes, uint64(len(msg.Payload)))
		c, ok := m.conns[connID]
		if !ok {
			sp.End(m.ctl.Clock().Now())
			return true, ErrNoConn
		}
		if c.recv == nil || c.recv.mmt == nil {
			sp.End(m.ctl.Clock().Now())
			return true, fmt.Errorf("monitor: no armed receive buffer on %s", connID)
		}
		// The controller records the functional install as a child of sp.
		m.ctl.SetCausal(sp.Context())
		err = c.recv.mmt.Accept(c.conn, wire)
		m.ctl.SetCausal(trace.Context{})
		if err != nil {
			// Rejected: nack the specific delegation and keep the buffer
			// armed.
			if hint, named := core.RecordReject(probe, m.ctl.Clock().Now(), err, wire, "monitor: ", "closure"); named {
				m.sendAck(c, false, hint, ctx)
			}
			sp.End(m.ctl.Clock().Now())
			return true, err
		}
		c.Received = append(c.Received, c.recv)
		accepted := c.recv.mmt.GUAddr()
		c.recv = nil
		probe.Count(trace.CtrClosuresAccepted, 1)
		ackCost := m.sendAck(c, true, accepted, ctx)
		probe.RecordOp(trace.OpMigrationRecv, ackCost)
		sp.AddCycles(ackCost)
		probe.Event(trace.EvMigrationAccept, m.ctl.Clock().Now(), accepted, "monitor: closure installed")
		sp.End(m.ctl.Clock().Now())
		// Re-arm for the next delegation if the pool allows it.
		if len(m.pool) > 0 {
			if err := m.armReceive(c); err != nil {
				return true, err
			}
		}
		return true, nil

	case netsim.KindControl:
		var am ackMsg
		if err := json.Unmarshal(msg.Payload, &am); err != nil || am.Type != "ack" {
			return true, fmt.Errorf("monitor: malformed control message")
		}
		c, ok := m.conns[am.ConnID]
		if !ok {
			return true, ErrNoConn
		}
		p, ok := c.pending[am.GUAddr]
		if !ok {
			return true, fmt.Errorf("monitor: ack for unknown delegation %#x on %s", am.GUAddr, am.ConnID)
		}
		delete(c.pending, am.GUAddr)
		// The ack closes the migration's causal root span.
		if root, ok := c.pendingSpan[am.GUAddr]; ok {
			delete(c.pendingSpan, am.GUAddr)
			root.End(m.ctl.Clock().Now())
		}
		if err := p.mmt.CompleteSend(am.OK); err != nil {
			return true, err
		}
		if am.OK {
			m.ctl.Trace().Event(trace.EvDelegationAck, m.ctl.Clock().Now(), am.GUAddr, "monitor: transfer acknowledged")
		} else {
			m.ctl.Trace().Event(trace.EvDelegationAck, m.ctl.Clock().Now(), am.GUAddr, "monitor: transfer nacked")
		}
		if am.OK {
			c.Acked++
			m.releaseMoved(p)
		}
		return true, nil

	default:
		return true, fmt.Errorf("monitor: unexpected message kind %v", msg.Kind)
	}
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

// sendAck pushes an ack/nack control frame and reports the cycles it
// charged, so the caller can mirror them into the per-op histograms. The
// frame rides ctx — the migration's root context — so its wire flight
// lands in the same causal trace as the transfer it completes.
func (m *Monitor) sendAck(c *Connection, ok bool, guaddr uint64, ctx trace.Context) sim.Cycles {
	body, err := json.Marshal(ackMsg{Type: "ack", ConnID: c.ID, OK: ok, GUAddr: guaddr})
	if err != nil {
		return 0
	}
	cost := m.ctl.Profile().RemoteWriteCost(len(body))
	m.ctl.Trace().AddCycles(trace.PhaseDelegation, cost)
	m.ctl.Clock().AdvanceCycles(cost)
	m.endpoint.SendOwned(c.PeerMonitor, netsim.KindControl, body, ctx)
	return cost
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
