// Package forest implements the integrity forest of §IV-A2: the
// global-unique address space that lets integrity subtrees from many
// machines coexist without ever reusing a one-time pad.
//
// A global-unique address has two parts: the node id handed out by the
// authority during global attestation, and a monotonic number generated
// locally. The paper reserves 58 bits in the MMT root for it; this package
// packs a 16-bit node id above a 42-bit monotonic counter, matching that
// budget.
package forest

import (
	"fmt"
	"sync"
)

// NodeID is the global-unique node identifier assigned by the authority
// node during global attestation (§IV-A1).
type NodeID uint16

// GUAddrBits is the width of a global-unique address (58 bits, §V-A2).
const GUAddrBits = 58

// monotonicBits is the width of the per-node monotonic component.
const monotonicBits = GUAddrBits - 16

// Compose packs a node id and a monotonic number into a global-unique
// address. It panics if the monotonic number overflows its field, since a
// node that exhausts 2^42 allocations has violated the engine's design
// envelope (the hardware would halt similarly).
func Compose(node NodeID, monotonic uint64) uint64 {
	if monotonic >= 1<<monotonicBits {
		panic(fmt.Sprintf("forest: monotonic number %d overflows %d bits", monotonic, monotonicBits)) //mmt:allow nopanic: counter overflow after 2^48 migrations; hardware would halt rather than reuse an ID
	}
	return uint64(node)<<monotonicBits | monotonic
}

// Allocator hands out strictly increasing global-unique addresses for one
// node. It is safe for concurrent use (several enclaves on one node may
// acquire buffers concurrently).
type Allocator struct {
	mu   sync.Mutex
	node NodeID
	next uint64
}

// NewAllocator returns an allocator for the attested node id. The first
// address uses monotonic number 1 so that 0 can mean "unassigned".
func NewAllocator(node NodeID) *Allocator {
	return &Allocator{node: node, next: 1}
}

// Next returns a fresh global-unique address. Addresses from one allocator
// are strictly increasing — the property the delegation protocol's
// re-order check builds on (§IV-B2).
func (a *Allocator) Next() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	g := Compose(a.node, a.next)
	a.next++
	return g
}

// NextValue reports the next monotonic number without consuming it; the
// snapshot layer persists it so a reloaded node never reuses an address.
func (a *Allocator) NextValue() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

// RestoreAllocator rebuilds an allocator from persisted state. next must
// be at least 1 (0 means "unassigned" in the address scheme).
func RestoreAllocator(node NodeID, next uint64) (*Allocator, error) {
	if next < 1 || next >= 1<<monotonicBits {
		return nil, fmt.Errorf("forest: restored monotonic number %d out of range", next)
	}
	return &Allocator{node: node, next: next}, nil
}
