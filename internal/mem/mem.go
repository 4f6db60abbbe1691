// Package mem models a node's physical memory as seen by the MMT
// controller: a flat byte-addressable DRAM divided into fixed-size
// protection regions, each of which is normal (unprotected) memory or
// secure memory covered by an MMT, and the MMT meta-zone that stores tree
// nodes and data MACs (§V-A2).
//
// Which regions are secure is the controller's record (engine.Mode), not
// this package's. The meta-zone "is a separate memory range which can only
// be accessed by MMT monitor" and "each MMT metadata has a fixed mapping
// with its data memory"; MetaRegion implements that fixed mapping.
package mem

import (
	"fmt"

	"mmt/internal/crypt"
)

// Addr is a physical byte address inside one node's DRAM.
type Addr uint64

// LineSize is the cache-line granularity of the protection engine.
const LineSize = crypt.LineSize

// Config sizes a Memory.
type Config struct {
	// Size is the total DRAM size in bytes.
	Size int
	// RegionSize is the protection granularity — the amount of data
	// memory one MMT covers (2 MB for the paper's default 3-level tree).
	RegionSize int
	// MetaPerRegion is the meta-zone bytes reserved per region for tree
	// nodes and data MACs.
	MetaPerRegion int
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0:
		return fmt.Errorf("mem: non-positive size %d", c.Size)
	case c.RegionSize <= 0 || c.RegionSize%LineSize != 0:
		return fmt.Errorf("mem: region size %d not a positive multiple of %d", c.RegionSize, LineSize)
	case c.MetaPerRegion < 0 || c.MetaPerRegion%LineSize != 0:
		return fmt.Errorf("mem: meta per region %d not a non-negative multiple of %d", c.MetaPerRegion, LineSize)
	case c.Size%c.RegionSize != 0:
		return fmt.Errorf("mem: size %d not a multiple of region size %d", c.Size, c.RegionSize)
	}
	return nil
}

// Memory is one node's physical DRAM plus its meta-zone. The meta-zone is
// modeled as a parallel array rather than carved out of the data range so
// that region<->metadata mapping stays fixed (as in the hardware), while
// region indices remain contiguous.
type Memory struct {
	cfg  Config
	data []byte
	meta []byte
}

// New allocates a Memory from cfg. It panics on an invalid Config because
// configurations are static (they come from sim profiles or tests).
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err) // static experiment configuration; a bad Config is a programming error, not runtime input
	}
	return &Memory{
		cfg:  cfg,
		data: make([]byte, cfg.Size),
		meta: make([]byte, cfg.Size/cfg.RegionSize*cfg.MetaPerRegion),
	}
}

// Config reports the sizing used to build this memory.
func (m *Memory) Config() Config { return m.cfg }

// Size reports the total data DRAM size in bytes.
func (m *Memory) Size() int { return m.cfg.Size }

// Regions reports the number of protection regions.
func (m *Memory) Regions() int { return m.cfg.Size / m.cfg.RegionSize }

// RegionBase reports the base address of region r.
func (m *Memory) RegionBase(r int) Addr { return Addr(uint64(r) * uint64(m.cfg.RegionSize)) }

func (m *Memory) checkSpan(a Addr, n int) {
	if n < 0 || uint64(a)+uint64(n) > uint64(m.cfg.Size) {
		panic(fmt.Sprintf("mem: span [%#x,+%d) out of range (size %#x)", uint64(a), n, m.cfg.Size)) // internal bounds guard; models a hardware fault on an impossible span
	}
}

// LineView returns the LineSize-aligned line at a, aliased to the DRAM
// backing store (see MetaRegion), for the engine's zero-allocation read
// path; callers must not hold the slice across writes.
func (m *Memory) LineView(a Addr) []byte {
	m.checkLine(a)
	return m.data[a : a+LineSize]
}

func (m *Memory) checkLine(a Addr) {
	if uint64(a)%LineSize != 0 {
		panic(fmt.Sprintf("mem: unaligned line address %#x", uint64(a))) // internal invariant; line addresses are engine-computed and always aligned
	}
	m.checkSpan(a, LineSize)
}

// Read copies n bytes starting at a. It models raw DRAM/DMA access with no
// protection checks — exactly what an off-chip attacker or a DMA engine
// sees (ciphertext for secure regions).
func (m *Memory) Read(a Addr, n int) []byte {
	m.checkSpan(a, n)
	out := make([]byte, n)
	copy(out, m.data[a:])
	return out
}

// Write stores p starting at a, with no protection checks (see Read).
func (m *Memory) Write(a Addr, p []byte) {
	m.checkSpan(a, len(p))
	copy(m.data[a:], p)
}

// MetaRegion returns the meta-zone bytes backing region r. The slice
// aliases the meta-zone so the engine can update tree nodes in place; it
// is also what a physical attacker can overwrite, which the integrity
// checks must detect.
func (m *Memory) MetaRegion(r int) []byte {
	if r < 0 || r >= m.Regions() {
		panic(fmt.Sprintf("mem: region %d out of range [0,%d)", r, m.Regions())) // internal bounds guard; models a hardware fault on an impossible region index
	}
	return m.meta[r*m.cfg.MetaPerRegion : (r+1)*m.cfg.MetaPerRegion]
}

// RegionData returns the data bytes of region r, aliased (see MetaRegion).
func (m *Memory) RegionData(r int) []byte {
	base := int(m.RegionBase(r))
	return m.data[base : base+m.cfg.RegionSize]
}
