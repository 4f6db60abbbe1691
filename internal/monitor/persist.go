package monitor

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"mmt/internal/attest"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/forest"
	"mmt/internal/trace"
)

// This file is the monitor's persistence surface: a plain-struct Snapshot
// of the enclave and PMO managers that internal/snap's codec serializes,
// plus Restore, which rebuilds a monitor around an already-
// verified controller state. Attestation reports are persisted verbatim
// and re-verified (never re-signed — ECDSA is randomized and byte
// stability matters); MMT keys are persisted because they are the only
// durable copy (hardware keeps them in the sealed root).

// ErrNotQuiescent is returned by Snapshot when delegation state is still
// in flight: an MMT in sending state or an unacked outbound delegation
// cannot be captured consistently on one machine.
var ErrNotQuiescent = errors.New("monitor: delegations in flight; pump the network before saving")

// EnclaveRec is one enclave-table entry.
type EnclaveRec struct {
	ID          EnclaveID
	Name        string
	Measurement attest.Measurement
	Caps        []CapID // sorted
}

// PMORec is one PMO-table entry.
type PMORec struct {
	Cap    CapID
	Region int
	Owner  EnclaveID
}

// MMTRec is one live MMT root state, keyed by region (each region holds at
// most one non-invalid MMT).
type MMTRec struct {
	Region   int
	State    core.State
	Key      crypt.Key
	GUAddr   uint64
	Mode     core.TransferMode
	ReadOnly bool
}

// ConnRec is one delegation-connection record, including the replay and
// re-order floors.
type ConnRec struct {
	ID          string
	Local       EnclaveID
	PeerMonitor string
	PeerEnclave EnclaveID
	Key         crypt.Key
	LastCounter uint64
	LastGUAddr  uint64
	RecvCap     CapID // 0 = no armed receive buffer
	Received    []CapID
	Acked       int
}

// Snapshot is the monitor's full persistable state.
type Snapshot struct {
	NodeID      forest.NodeID
	Report      *attest.Report
	NextEnclave EnclaveID
	NextCap     CapID
	AllocNext   uint64
	Pool        []int
	Enclaves    []EnclaveRec
	PMOs        []PMORec
	MMTs        []MMTRec
	Conns       []ConnRec
}

// Snapshot captures the monitor's state. It fails if the monitor is not
// booted or if any delegation is mid-flight (sending MMTs / unacked
// transfers): at a quiesce point every MMT is valid, waiting or invalid.
func (m *Monitor) Snapshot() (*Snapshot, error) {
	if m.node == nil || m.report == nil {
		return nil, ErrNotAttested
	}
	s := &Snapshot{
		NodeID:      m.node.ID(),
		Report:      m.report,
		NextEnclave: m.nextEnclave,
		NextCap:     m.nextCap,
		AllocNext:   m.node.AllocNext(),
		Pool:        append([]int(nil), m.pool...),
	}

	for _, id := range slices.Sorted(maps.Keys(m.enclaves)) {
		e := m.enclaves[id]
		s.Enclaves = append(s.Enclaves, EnclaveRec{ID: e.ID, Name: e.Name, Measurement: e.Measurement, Caps: m.CapsOf(id)})
	}

	for _, c := range slices.Sorted(maps.Keys(m.pmos)) {
		p := m.pmos[c]
		s.PMOs = append(s.PMOs, PMORec{Cap: p.Cap, Region: p.Region, Owner: p.Owner})
		if p.mmt == nil {
			continue
		}
		switch p.mmt.State() {
		case core.StateInvalid:
			// Nothing to persist: the region is back to normal memory.
		case core.StateSending:
			return nil, fmt.Errorf("%w: region %d is sending", ErrNotQuiescent, p.mmt.Region())
		default:
			s.MMTs = append(s.MMTs, MMTRec{
				Region:   p.mmt.Region(),
				State:    p.mmt.State(),
				Key:      p.mmt.Key(),
				GUAddr:   p.mmt.GUAddr(),
				Mode:     p.mmt.Mode(),
				ReadOnly: p.mmt.ReadOnly(),
			})
		}
	}
	sort.Slice(s.MMTs, func(i, j int) bool { return s.MMTs[i].Region < s.MMTs[j].Region })

	for _, id := range slices.Sorted(maps.Keys(m.conns)) {
		c := m.conns[id]
		if n := c.ep.InFlight(); n > 0 {
			return nil, fmt.Errorf("%w: %d unacked delegations on %s", ErrNotQuiescent, n, id)
		}
		conn := c.Conn()
		rec := ConnRec{
			ID: c.ID, Local: c.Local, PeerMonitor: c.PeerMonitor, PeerEnclave: c.PeerEnclave,
			Key: conn.Key(), LastCounter: conn.LastCounter(), LastGUAddr: conn.LastGUAddr(),
			Acked: c.Acked,
		}
		if c.recv != nil {
			rec.RecvCap = c.recv.Cap
		}
		for _, p := range c.Received {
			rec.Received = append(rec.Received, p.Cap)
		}
		s.Conns = append(s.Conns, rec)
	}
	return s, nil
}

// Restore rebuilds the monitor's managers from a snapshot. The controller
// must already hold the verified region state (trees, ciphertext, MACs)
// for every MMT record — Restore only reattaches bookkeeping and refuses
// obviously inconsistent snapshots. The persisted attestation report is
// re-verified against the authority key instead of re-running attestation,
// so the restored node keeps its node id and report bytes. Restored
// connections send on the monitor's endpoint, so the network must be
// attached first.
func (m *Monitor) Restore(s *Snapshot) error {
	if m.node != nil {
		return errors.New("monitor: restore into a booted monitor")
	}
	if m.endpoint == nil {
		return errors.New("monitor: attach the network before restoring")
	}
	if err := attest.VerifyReport(m.authority, s.Report); err != nil {
		return err
	}
	if s.Report.NodeID != s.NodeID {
		return fmt.Errorf("monitor: report node id %d != snapshot %d", s.Report.NodeID, s.NodeID)
	}
	if s.Report.Subject != m.machine.Name {
		return fmt.Errorf("monitor: report subject %q != machine %q", s.Report.Subject, m.machine.Name)
	}
	if s.Report.Measurement != m.measurement {
		return errors.New("monitor: report measurement != monitor measurement")
	}
	node, err := core.RestoreNode(s.NodeID, m.ctl, s.AllocNext)
	if err != nil {
		return err
	}

	enclaves := make(map[EnclaveID]*Enclave, len(s.Enclaves))
	for _, rec := range s.Enclaves {
		e := &Enclave{ID: rec.ID, Name: rec.Name, Measurement: rec.Measurement, caps: make(map[CapID]bool, len(rec.Caps))}
		for _, c := range rec.Caps {
			e.caps[c] = true
		}
		enclaves[rec.ID] = e
	}
	pmos := make(map[CapID]*PMO, len(s.PMOs))
	byRegion := make(map[int]*PMO, len(s.PMOs))
	for _, rec := range s.PMOs {
		owner, ok := enclaves[rec.Owner]
		if !ok {
			return fmt.Errorf("monitor: PMO %d owned by unknown enclave %d", rec.Cap, rec.Owner)
		}
		if !owner.caps[rec.Cap] {
			return fmt.Errorf("monitor: enclave %d missing capability %d", rec.Owner, rec.Cap)
		}
		p := &PMO{Cap: rec.Cap, Region: rec.Region, Owner: rec.Owner}
		pmos[rec.Cap] = p
		byRegion[rec.Region] = p
	}
	for _, rec := range s.MMTs {
		p, ok := byRegion[rec.Region]
		if !ok {
			return fmt.Errorf("monitor: MMT on region %d has no PMO", rec.Region)
		}
		mmt, err := node.RestoreMMT(rec.Region, rec.State, rec.Key, rec.GUAddr, rec.Mode, rec.ReadOnly)
		if err != nil {
			return err
		}
		p.mmt = mmt
	}
	m.conns = make(map[string]*Connection, len(s.Conns))
	for _, rec := range s.Conns {
		c := m.newConnection(node, rec.ID, rec.Local, rec.PeerMonitor, rec.PeerEnclave,
			core.RestoreConn(rec.Key, rec.LastCounter, rec.LastGUAddr))
		c.Acked = rec.Acked
		if rec.RecvCap != 0 {
			p, ok := pmos[rec.RecvCap]
			if !ok {
				return fmt.Errorf("monitor: connection %s receive capability %d unknown", rec.ID, rec.RecvCap)
			}
			c.recv = p
		}
		for _, cap := range rec.Received {
			p, ok := pmos[cap]
			if !ok {
				return fmt.Errorf("monitor: connection %s received capability %d unknown", rec.ID, cap)
			}
			c.Received = append(c.Received, p)
		}
	}

	m.node = node
	m.report = s.Report
	m.nextEnclave = s.NextEnclave
	m.nextCap = s.NextCap
	m.enclaves = enclaves
	m.pmos = pmos
	m.pool = append([]int(nil), s.Pool...)
	return nil
}

// CapsOf lists the capabilities held by an enclave, sorted.
func (m *Monitor) CapsOf(owner EnclaveID) []CapID {
	e, ok := m.enclaves[owner]
	if !ok {
		return nil
	}
	return slices.Sorted(maps.Keys(e.caps))
}

// ExportPMO seals the PMO's MMT into a closure exactly like SendPMO, but
// hands the wire bytes back to the caller instead of putting them on the
// network: the returned artifact IS the transport (a file, a side channel,
// a migration tool). The local side completes immediately — ownership
// transfer invalidates and frees the region; ownership copy returns the
// MMT to valid. The peer imports with ImportClosure, and the connection
// floors keep replayed or re-ordered artifacts rejected just like wire
// delegations.
func (m *Monitor) ExportPMO(caller EnclaveID, cap CapID, connID string, mode core.TransferMode) ([]byte, error) {
	_, p, closure, err := m.sealPMO(caller, cap, connID, mode, "export")
	if err != nil {
		return nil, err
	}
	wire := closure.Encode()
	if err := p.mmt.CompleteSend(true); err != nil {
		return nil, err
	}
	probe := m.ctl.Trace()
	probe.Count(trace.CtrClosuresSent, 1)
	probe.Count(trace.CtrClosureEncodeBytes, uint64(len(wire)))
	probe.Event(trace.EvMigrationSend, m.ctl.Clock().Now(), p.mmt.GUAddr(), "monitor: closure exported to artifact")
	m.releaseMoved(p)
	return wire, nil
}

// ImportClosure accepts an exported closure into the connection's armed
// receive buffer — the artifact-file counterpart of the Pump closure path,
// minus the ack (the exporting side already completed). It returns the
// PMO now holding the MMT and re-arms the connection when the pool allows.
func (m *Monitor) ImportClosure(connID string, wire []byte) (*PMO, error) {
	c, ok := m.conns[connID]
	if !ok {
		return nil, ErrNoConn
	}
	if err := m.armReceive(c); err != nil {
		return nil, err
	}
	probe := m.ctl.Trace()
	probe.Count(trace.CtrClosureDecodeBytes, uint64(len(wire)))
	if err := c.recv.mmt.Accept(c.Conn(), wire); err != nil {
		core.RecordReject(probe, m.ctl.Clock().Now(), err, wire, "monitor: ", "artifact")
		return nil, err
	}
	probe.Count(trace.CtrClosuresAccepted, 1)
	probe.Event(trace.EvMigrationAccept, m.ctl.Clock().Now(), c.recv.mmt.GUAddr(), "monitor: artifact closure installed")
	return m.takeArmed(c)
}
