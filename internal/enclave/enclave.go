// Package enclave is the TEEOS-lite runtime of §V-B1: the in-TEE layer
// (ChCore in the paper) that allocates secure physical memory objects from
// the monitor's pinned pool and maps them into an enclave's virtual
// address space, exposing byte-granular loads and stores on top of the
// controller's line-granular protected memory.
//
// The monitor stays the only module that configures the MMT hardware; this
// package holds capabilities on behalf of an enclave and performs the
// read-modify-write splitting a real TEEOS page layer would.
package enclave

import (
	"errors"
	"fmt"
	"sort"

	"mmt/internal/attest"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/monitor"
)

// Runtime is one node's TEEOS instance.
type Runtime struct {
	mon *monitor.Monitor
}

// NewRuntime wraps a booted monitor.
func NewRuntime(mon *monitor.Monitor) *Runtime { return &Runtime{mon: mon} }

// Monitor exposes the underlying monitor (for connection setup).
func (rt *Runtime) Monitor() *monitor.Monitor { return rt.mon }

// Enclave is a running enclave with a virtual address space over mapped
// PMOs.
type Enclave struct {
	rt   *Runtime
	id   monitor.EnclaveID
	maps []mapping // sorted by VA, non-overlapping
}

type mapping struct {
	va   uint64
	size int
	pmo  *monitor.PMO
}

// Spawn creates an enclave under the runtime's monitor, measured from its
// code image.
func (rt *Runtime) Spawn(name string, image []byte) *Enclave {
	e := rt.mon.CreateEnclave(name, attest.MeasureSoftware(image))
	return &Enclave{rt: rt, id: e.ID}
}

// Adopt wraps an enclave id that already exists in the monitor — snapshot
// recovery restores the monitor's enclave table first, then rebuilds the
// runtime handles with Adopt instead of minting fresh ids via Spawn.
func (rt *Runtime) Adopt(id monitor.EnclaveID) *Enclave {
	return &Enclave{rt: rt, id: id}
}

// ID reports the enclave's monitor-assigned id.
func (e *Enclave) ID() monitor.EnclaveID { return e.id }

// Runtime errors.
var (
	ErrUnmapped = errors.New("enclave: address not mapped")
	ErrOverlap  = errors.New("enclave: mapping overlaps an existing one")
)

// AllocBuffer allocates one PMO, acquires an MMT over it with the given
// key and counter, and maps it at va. It returns the capability for later
// delegation.
func (e *Enclave) AllocBuffer(va uint64, key crypt.Key, initCounter uint64) (monitor.CapID, error) {
	p, err := e.rt.mon.AllocPMO(e.id)
	if err != nil {
		return 0, err
	}
	if _, err := e.rt.mon.AcquireMMT(e.id, p.Cap, key, initCounter); err != nil {
		return 0, err
	}
	if err := e.mapPMO(va, p); err != nil {
		return 0, err
	}
	return p.Cap, nil
}

// MapReceived maps an already-received PMO (from a delegation) at va. The
// PMO must be owned by this enclave.
func (e *Enclave) MapReceived(va uint64, cap monitor.CapID) error {
	p, err := e.rt.mon.PMOOf(e.id, cap)
	if err != nil {
		return err
	}
	return e.mapPMO(va, p)
}

func (e *Enclave) mapPMO(va uint64, p *monitor.PMO) error {
	size := e.rt.mon.Node().Controller().Geometry().DataSize()
	for _, m := range e.maps {
		if va < m.va+uint64(m.size) && m.va < va+uint64(size) {
			return fmt.Errorf("%w: [%#x,+%d) vs [%#x,+%d)", ErrOverlap, va, size, m.va, m.size)
		}
	}
	e.maps = append(e.maps, mapping{va: va, size: size, pmo: p})
	sort.Slice(e.maps, func(i, j int) bool { return e.maps[i].va < e.maps[j].va })
	return nil
}

// Unmap removes the mapping starting at va (the PMO itself survives).
func (e *Enclave) Unmap(va uint64) error {
	for i, m := range e.maps {
		if m.va == va {
			e.maps = append(e.maps[:i], e.maps[i+1:]...)
			return nil
		}
	}
	return ErrUnmapped
}

// resolve finds the mapping containing [va, va+n).
func (e *Enclave) resolve(va uint64, n int) (*mapping, error) {
	i := sort.Search(len(e.maps), func(i int) bool { return e.maps[i].va+uint64(e.maps[i].size) > va })
	if i == len(e.maps) || va < e.maps[i].va || va+uint64(n) > e.maps[i].va+uint64(e.maps[i].size) {
		return nil, fmt.Errorf("%w: [%#x,+%d)", ErrUnmapped, va, n)
	}
	return &e.maps[i], nil
}

// mmtAt resolves [va, va+n) to the MMT backing it and the span's byte
// offset within that MMT's region.
func (e *Enclave) mmtAt(va uint64, n int) (*core.MMT, int, error) {
	m, err := e.resolve(va, n)
	if err != nil {
		return nil, 0, err
	}
	mmt := m.pmo.MMT()
	if mmt == nil {
		return nil, 0, fmt.Errorf("enclave: PMO %d has no MMT", m.pmo.Cap)
	}
	return mmt, int(va - m.va), nil
}

// Read loads n bytes from the enclave's virtual address space, verifying
// and decrypting through the MMT controller.
func (e *Enclave) Read(va uint64, n int) ([]byte, error) {
	mmt, off, err := e.mmtAt(va, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := mmt.ReadAt(off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Write stores p at va; partial lines are read-modify-written, as a TEEOS
// data path would.
func (e *Enclave) Write(va uint64, p []byte) error {
	mmt, off, err := e.mmtAt(va, len(p))
	if err != nil {
		return err
	}
	return mmt.WriteAt(off, p)
}

// CapAt reports the capability mapped at va (for delegation calls).
func (e *Enclave) CapAt(va uint64) (monitor.CapID, error) {
	m, err := e.resolve(va, 1)
	if err != nil {
		return 0, err
	}
	return m.pmo.Cap, nil
}
