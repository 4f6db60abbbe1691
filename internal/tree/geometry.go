// Package tree implements the counter-based integrity tree of the MMT
// controller (§II-A, §V-A2): per-level counter nodes with a global/local
// counter split, Carter–Wegman node MACs keyed by the parent counter, the
// counter-overflow re-hash procedure, and a serialized form used both for
// the MMT meta-zone and for MMT closures in flight.
//
// Geometry note: the paper says leaves have 64 counters and other nodes 32
// (§V-A2), but every size in Table V (closures of 64 KB / 2 MB / 64 MB and
// SoC root storage of 256 KB / 8 KB / 256 B over 2 GB) requires the top
// level to have arity 16: 64 B x 64 x 32 x 16 = 2 MB. This package
// therefore defaults to arities (top..leaf) = 16, 32, ..., 32, 64, which
// reproduces Table V exactly; DESIGN.md records the discrepancy.
package tree

import (
	"fmt"

	"mmt/internal/crypt"
)

// LineSize is the protected data granularity in bytes.
const LineSize = crypt.LineSize

// DefaultLocalBits is the width of a per-slot local counter. The effective
// counter for a slot is global<<LocalBits | local; when a local counter
// wraps, the node's global counter increments and every child must be
// re-hashed (and, at the leaf level, re-encrypted).
const DefaultLocalBits = 16

// Geometry describes one MMT's shape: the arity of each node level from
// the top (just under the root) down to the leaves, plus the local-counter
// width.
type Geometry struct {
	// Arities lists node arities from top level to leaf level. Arities[i]
	// is both the child count of a level-i node and the counter count in
	// that node.
	Arities []int
	// LocalBits is the local counter width (DefaultLocalBits if 0).
	LocalBits uint
}

// ForLevels returns the paper's geometry for a tree of the given number of
// node levels (2, 3 or 4 in the evaluation; 3 is the default system).
func ForLevels(levels int) Geometry {
	if levels < 1 {
		//mmt:allow nopanic: static experiment configuration (2-4 levels); callers pass literals
		panic(fmt.Sprintf("tree: invalid level count %d", levels))
	}
	ar := make([]int, levels)
	for i := range ar {
		switch {
		case i == levels-1:
			ar[i] = 64 // leaf
		case i == 0 && levels > 1:
			ar[i] = 16 // top
		default:
			ar[i] = 32 // interior
		}
	}
	if levels == 1 {
		ar[0] = 64
	}
	return Geometry{Arities: ar}
}

// Validate checks the geometry.
func (g Geometry) Validate() error {
	if len(g.Arities) == 0 {
		return fmt.Errorf("tree: geometry has no levels")
	}
	for i, a := range g.Arities {
		if a < 2 {
			return fmt.Errorf("tree: level %d arity %d < 2", i, a)
		}
	}
	if g.LocalBits > 16 {
		return fmt.Errorf("tree: local bits %d > 16 (locals serialize as uint16)", g.LocalBits)
	}
	return nil
}

func (g Geometry) localBits() uint {
	if g.LocalBits == 0 {
		return DefaultLocalBits
	}
	return g.LocalBits
}

// Levels reports the number of node levels (excluding the root counter).
func (g Geometry) Levels() int { return len(g.Arities) }

// Lines reports how many data lines the tree covers.
func (g Geometry) Lines() int {
	n := 1
	for _, a := range g.Arities {
		n *= a
	}
	return n
}

// DataSize reports the protected data bytes (the MMT granularity: 2 MB for
// the 3-level default).
func (g Geometry) DataSize() int { return g.Lines() * LineSize }

// NodesAtLevel reports the node count at level l (level 0 = top).
func (g Geometry) NodesAtLevel(l int) int {
	n := 1
	for i := 0; i < l; i++ {
		n *= g.Arities[i]
	}
	return n
}

// TotalNodes reports the node count across all levels.
func (g Geometry) TotalNodes() int {
	total := 0
	for l := range g.Arities {
		total += g.NodesAtLevel(l)
	}
	return total
}

// NodeSize reports the serialized size in bytes of one level-l node:
// 8-byte global counter, 2-byte locals, 8-byte MAC.
func (g Geometry) NodeSize(l int) int { return 8 + 2*g.Arities[l] + 8 }

// NodeOffset reports the byte offset of node (l, i) within the Serialize
// layout (levels top-down, nodes in index order). The snapshot recovery
// path uses it to patch dirty-node deltas into a serialized node set.
func (g Geometry) NodeOffset(l, i int) int {
	off := 0
	for k := 0; k < l; k++ {
		off += g.NodesAtLevel(k) * g.NodeSize(k)
	}
	return off + i*g.NodeSize(l)
}

// NodesSize reports the serialized size of all tree nodes.
func (g Geometry) NodesSize() int {
	total := 0
	for l := range g.Arities {
		total += g.NodesAtLevel(l) * g.NodeSize(l)
	}
	return total
}

// LineMACsSize reports the bytes of per-line data MACs (8 B each).
func (g Geometry) LineMACsSize() int { return g.Lines() * 8 }

// MetaSize reports the meta-zone bytes per MMT: all tree nodes plus all
// line MACs, rounded up to a whole line.
func (g Geometry) MetaSize() int {
	n := g.NodesSize() + g.LineMACsSize()
	if r := n % LineSize; r != 0 {
		n += LineSize - r
	}
	return n
}

// RootSoCBytes reports the per-MMT SoC root storage (8-byte counter), used
// to reproduce Table V's "Root Size" column for a given total memory.
func (g Geometry) RootSoCBytes() int { return 8 }

// path computes, for a line index, the node index and slot at every level.
// Returned slices are indexed by level (0 = top).
func (g Geometry) path(line int) (nodeIdx, slot []int) {
	if line < 0 || line >= g.Lines() {
		//mmt:allow nopanic: internal bounds guard, equivalent to built-in slice indexing
		panic(fmt.Sprintf("tree: line %d out of range [0,%d)", line, g.Lines()))
	}
	L := g.Levels()
	nodeIdx = make([]int, L)
	slot = make([]int, L)
	g.pathInto(line, nodeIdx, slot)
	return nodeIdx, slot
}

// pathInto is path writing into caller-owned level-indexed buffers of
// length Levels(), for a line the caller has bounds-checked; the tree's
// hot verify/update paths use it with scratch buffers to stay
// allocation-free.
func (g Geometry) pathInto(line int, nodeIdx, slot []int) {
	// Walk from leaf upward: at the leaf level the slot is line % leafArity
	// and the node index is line / leafArity; each level up divides by that
	// level's arity.
	idx := line
	for l := g.Levels() - 1; l >= 0; l-- {
		slot[l] = idx % g.Arities[l]
		idx /= g.Arities[l]
		nodeIdx[l] = idx
	}
}
