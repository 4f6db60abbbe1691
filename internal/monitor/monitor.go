// Package monitor implements the MMT monitor of §IV-C: the trusted-and-
// tiny firmware module (EL3/M-mode in the paper) that manages enclave
// lifecycles, organises secure physical memory objects (PMOs) behind
// capabilities, performs attestation, and is the only component allowed to
// configure the MMT controller.
//
// Two managers mirror the paper's structure. The enclave manager owns the
// enclave map (metadata, capabilities, attestation reports) and the
// connections to remote enclaves. The PMO manager owns the pinned pool of
// secure regions, enforces the one-owner rule, and drives the MMT state
// machine in package core on the owner's behalf.
package monitor

import (
	"crypto/ecdsa"
	"errors"
	"fmt"

	"mmt/internal/attest"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/forest"
	"mmt/internal/netsim"
	"mmt/internal/trace"
)

// EnclaveID names an enclave on one node.
type EnclaveID uint32

// CapID is an unforgeable capability naming one PMO. Only the capability
// holder (the PMO's owner enclave) may configure the PMO's MMT.
type CapID uint64

// Monitor errors.
var (
	ErrNoEnclave   = errors.New("monitor: no such enclave")
	ErrNoCap       = errors.New("monitor: no such capability")
	ErrNotOwner    = errors.New("monitor: enclave does not own this PMO")
	ErrPoolEmpty   = errors.New("monitor: secure memory pool exhausted")
	ErrNoConn      = errors.New("monitor: no such connection")
	ErrNotAttested = errors.New("monitor: node has not completed global attestation")
)

// Enclave is the enclave manager's record for one local enclave.
type Enclave struct {
	ID          EnclaveID
	Name        string
	Measurement attest.Measurement
	caps        map[CapID]bool
}

// PMO is a physical memory object: one secure region plus its MMT
// (§IV-C: "physical memory object contains two parts: the secure memory
// and the corresponding MMT").
type PMO struct {
	Cap    CapID
	Region int
	Owner  EnclaveID
	mmt    *core.MMT // nil until the MMT is acquired or received
}

// MMT reports the live MMT bound to the PMO, if any.
func (p *PMO) MMT() *core.MMT { return p.mmt }

// Monitor is one node's most-privileged software module.
type Monitor struct {
	machine     *attest.Machine
	measurement attest.Measurement
	authority   *ecdsa.PublicKey

	ctl    *engine.Controller
	node   *core.Node
	report *attest.Report

	nextEnclave EnclaveID
	nextCap     CapID
	enclaves    map[EnclaveID]*Enclave
	pmos        map[CapID]*PMO
	pool        []int // free secure regions (the pinned sPMO pool)

	endpoint *netsim.Endpoint
	conns    map[string]*Connection
}

// New builds a monitor for a machine. The secure-region pool is every
// region of the controller's memory; the TEEOS would normally carve this
// pinned pool out, which the enclave substrate does in its own package.
func New(machine *attest.Machine, measurement attest.Measurement, authorityKey *ecdsa.PublicKey, ctl *engine.Controller) *Monitor {
	m := &Monitor{
		machine:     machine,
		measurement: measurement,
		authority:   authorityKey,
		nextEnclave: 1,
		nextCap:     1,
		enclaves:    make(map[EnclaveID]*Enclave),
		pmos:        make(map[CapID]*PMO),
		conns:       make(map[string]*Connection),
	}
	for r := 0; r < ctl.Memory().Regions(); r++ {
		m.pool = append(m.pool, r)
	}
	m.ctl = ctl
	return m
}

// Boot runs global attestation against the authority and brings up the
// core runtime under the granted node id.
func (m *Monitor) Boot(authority *attest.Authority) error {
	ns, err := attest.NewNodeSession(m.machine, m.measurement, m.machine.Name, m.authority)
	if err != nil {
		return err
	}
	id, report, err := attest.Run(ns, authority)
	if err != nil {
		return err
	}
	m.node = core.NewNode(id, m.ctl)
	m.report = report
	return nil
}

// NodeID reports the attested node id (0 before Boot).
func (m *Monitor) NodeID() forest.NodeID {
	if m.node == nil {
		return 0
	}
	return m.node.ID()
}

// Report returns the node's attestation report (nil before Boot).
func (m *Monitor) Report() *attest.Report { return m.report }

// Node exposes the core runtime (nil before Boot).
func (m *Monitor) Node() *core.Node { return m.node }

// AttachNetwork connects the monitor to the untrusted interconnect under
// the given name. The endpoint inherits the controller's trace probe so
// the machine's wire traffic lands under its trace process.
func (m *Monitor) AttachNetwork(net *netsim.Network, name string) error {
	ep, err := net.Attach(name, m.ctl.Clock())
	if err != nil {
		return err
	}
	ep.SetTrace(m.ctl.Trace())
	m.endpoint = ep
	return nil
}

// CreateEnclave registers a new enclave with the enclave manager.
func (m *Monitor) CreateEnclave(name string, measurement attest.Measurement) *Enclave {
	e := &Enclave{ID: m.nextEnclave, Name: name, Measurement: measurement, caps: make(map[CapID]bool)}
	m.nextEnclave++
	m.enclaves[e.ID] = e
	return e
}

// AllocPMO takes a region from the pinned pool and creates a PMO owned by
// the enclave. The MMT is not yet acquired — that is a separate, owner-
// gated configuration step.
func (m *Monitor) AllocPMO(owner EnclaveID) (*PMO, error) {
	e, ok := m.enclaves[owner]
	if !ok {
		return nil, ErrNoEnclave
	}
	if len(m.pool) == 0 {
		return nil, ErrPoolEmpty
	}
	region := m.pool[0]
	m.pool = m.pool[1:]
	p := &PMO{Cap: m.nextCap, Region: region, Owner: owner}
	m.nextCap++
	m.pmos[p.Cap] = p
	e.caps[p.Cap] = true
	return p, nil
}

// FreePMO returns a PMO's region to the pool, invalidating any live MMT.
// A PMO the delegation protocol still holds — armed to receive (waiting)
// or in flight (sending) — is refused and stays out of the pool.
func (m *Monitor) FreePMO(caller EnclaveID, cap CapID) error {
	p, err := m.checkOwner(caller, cap)
	if err != nil {
		return err
	}
	var guaddr uint64
	if p.mmt != nil {
		guaddr = p.mmt.GUAddr()
		switch st := p.mmt.State(); st {
		case core.StateWaiting, core.StateSending:
			return fmt.Errorf("%w: cannot free PMO %d while %v", core.ErrState, cap, st)
		case core.StateValid:
			if err := p.mmt.Reclaim(); err != nil {
				return err
			}
		}
	}
	delete(m.enclaves[p.Owner].caps, cap)
	delete(m.pmos, cap)
	m.pool = append(m.pool, p.Region)
	m.ctl.Trace().Event(trace.EvCapDestroy, m.ctl.Clock().Now(), guaddr, "monitor: capability freed")
	return nil
}

// checkOwner resolves a capability and enforces the one-owner rule.
func (m *Monitor) checkOwner(caller EnclaveID, cap CapID) (*PMO, error) {
	p, ok := m.pmos[cap]
	if !ok {
		return nil, ErrNoCap
	}
	if p.Owner != caller {
		return nil, ErrNotOwner
	}
	return p, nil
}

// AcquireMMT configures a valid MMT over the PMO's region with the given
// key and initial counter. Owner only.
func (m *Monitor) AcquireMMT(caller EnclaveID, cap CapID, key crypt.Key, initCounter uint64) (*core.MMT, error) {
	if m.node == nil {
		return nil, ErrNotAttested
	}
	p, err := m.checkOwner(caller, cap)
	if err != nil {
		return nil, err
	}
	mmt, err := m.node.Acquire(p.Region, key, initCounter)
	if err != nil {
		return nil, err
	}
	p.mmt = mmt
	return mmt, nil
}

// PMOOf resolves a capability for its owner.
func (m *Monitor) PMOOf(caller EnclaveID, cap CapID) (*PMO, error) {
	return m.checkOwner(caller, cap)
}

// PoolFree reports how many secure regions remain unallocated.
func (m *Monitor) PoolFree() int { return len(m.pool) }
