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
	"math"
	"math/bits"

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
		// static experiment configuration (2-4 levels); callers pass literals
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

// Validate checks the geometry: every bound Layout enforces.
func (g Geometry) Validate() error {
	_, err := g.Layout()
	return err
}

func (g Geometry) localBits() uint {
	if g.LocalBits == 0 {
		return DefaultLocalBits
	}
	return g.LocalBits
}

// Level is one tree level's share of a Layout (level 0 = top).
type Level struct {
	Arity     int // slots per node = children per node
	Nodes     int // nodes at this level
	Base      int // flat index of node (l, 0): the node count of the levels above
	Span      int // data lines under one node
	NodeSize  int // serialized bytes of one node: 8-byte global, 2-byte locals, 8-byte MAC
	Offset    int // byte offset of node (l, 0) in the Serialize layout
	CtrBase   int // counter-plane word offset of node (l, 0)
	CtrStride int // counter-plane words per node: the global, then locals four per word
}

// Layout is every product of arities a geometry implies, multiplied out
// once. It is the single owner of tree coordinates: node (l, i) has the
// flat index Level[l].Base+i in every per-node plane (MACs, dirty bits,
// mask caches, the controller's node cache), its counter record starts at
// word Level[l].CtrBase+i*Level[l].CtrStride, and its serialized record at
// byte Level[l].Offset+i*Level[l].NodeSize — flat order is Serialize order.
type Layout struct {
	Level     []Level
	Nodes     int // nodes across all levels
	Lines     int // data lines the tree covers
	DataSize  int // protected bytes (the MMT granularity: 2 MB for the 3-level default)
	NodesSize int // serialized bytes of all tree nodes
	MetaSize  int // meta-zone bytes: all nodes plus an 8-byte MAC per line, rounded up to a whole line
	CtrWords  int // counter-plane words
}

// Layout derives the geometry's layout, or reports why the geometry is
// unusable. nodeID mixes level<<24 | index into every node MAC and the
// tweak carries the line as a uint32, so a level count or a per-level node
// count that aliases there — or any product that overflows int — would
// re-open node splicing within one MMT; each is an error here.
func (g Geometry) Layout() (Layout, error) {
	L := len(g.Arities)
	switch {
	case L == 0:
		return Layout{}, fmt.Errorf("tree: geometry has no levels")
	case L >= 1<<8:
		return Layout{}, fmt.Errorf("tree: %d levels >= 256 (the node id holds the level in 8 bits)", L)
	case g.LocalBits > 16:
		return Layout{}, fmt.Errorf("tree: local bits %d > 16 (locals serialize as uint16)", g.LocalBits)
	}
	ly := Layout{Level: make([]Level, L)}
	// Checked arithmetic on non-negative ints; ok goes false on overflow.
	ok := true
	mul := func(a, b int) int {
		hi, lo := bits.Mul64(uint64(a), uint64(b))
		ok = ok && hi == 0 && lo <= math.MaxInt
		return int(lo)
	}
	add := func(a, b int) int {
		ok = ok && a+b >= a
		return a + b
	}
	nodes := 1
	for l, a := range g.Arities {
		if a < 2 {
			return Layout{}, fmt.Errorf("tree: level %d arity %d < 2", l, a)
		}
		if nodes >= 1<<24 {
			return Layout{}, fmt.Errorf("tree: level %d has %d nodes >= 2^24 (the node id holds the index in 24 bits)", l, nodes)
		}
		lv := &ly.Level[l]
		lv.Arity, lv.Nodes = a, nodes
		lv.Base, lv.Offset, lv.CtrBase = ly.Nodes, ly.NodesSize, ly.CtrWords
		lv.NodeSize = add(mul(2, a), 16)
		lv.CtrStride = add(a, 3)/4 + 1
		ly.Nodes = add(ly.Nodes, nodes)
		ly.NodesSize = add(ly.NodesSize, mul(nodes, lv.NodeSize))
		ly.CtrWords = add(ly.CtrWords, mul(nodes, lv.CtrStride))
		nodes = mul(nodes, a)
		if !ok {
			return Layout{}, fmt.Errorf("tree: arities %v overflow int at level %d", g.Arities, l)
		}
	}
	if uint64(nodes-1) > math.MaxUint32 {
		return Layout{}, fmt.Errorf("tree: %d lines do not fit the tweak's uint32 line index", nodes)
	}
	ly.Lines = nodes
	ly.DataSize = mul(nodes, LineSize)
	ly.MetaSize = add(add(ly.NodesSize, mul(nodes, 8)), LineSize-1) / LineSize * LineSize
	if !ok {
		return Layout{}, fmt.Errorf("tree: arities %v overflow int in the region sizes", g.Arities)
	}
	for l, span := L-1, 1; l >= 0; l-- {
		span *= g.Arities[l] // a factor of Lines: cannot overflow
		ly.Level[l].Span = span
	}
	return ly, nil
}

// path writes, for a line the caller has bounds-checked, the flat index of
// the covering node and the slot within it at every level into
// level-indexed buffers of length len(Level).
func (ly *Layout) path(line int, node, slot []int) {
	// From the leaf upward: the slot is the running index modulo the
	// level's arity, the node index the quotient.
	idx := line
	for l := len(ly.Level) - 1; l >= 0; l-- {
		lv := &ly.Level[l]
		slot[l] = idx % lv.Arity
		idx /= lv.Arity
		node[l] = lv.Base + idx
	}
}

// NodeAt reports the flat index of the level-l node covering line.
func (ly *Layout) NodeAt(l, line int) int {
	lv := &ly.Level[l]
	return lv.Base + line/lv.Span
}

// levelOf reports the level of flat node n. Most nodes are leaves, so the
// scan starts there.
func (ly *Layout) levelOf(n int) int {
	l := len(ly.Level) - 1
	for n < ly.Level[l].Base {
		l--
	}
	return l
}

// Levels reports the number of node levels (excluding the root counter).
func (g Geometry) Levels() int { return len(g.Arities) }

// layout is Layout for the exported size readers below, which report zero
// for a geometry Validate rejects.
func (g Geometry) layout() Layout {
	ly, _ := g.Layout()
	return ly
}

// Lines reports how many data lines the tree covers.
func (g Geometry) Lines() int { return g.layout().Lines }

// DataSize reports the protected data bytes.
func (g Geometry) DataSize() int { return g.layout().DataSize }

// MetaSize reports the meta-zone bytes per MMT.
func (g Geometry) MetaSize() int { return g.layout().MetaSize }

// RootSoCBytes reports the per-MMT SoC root storage (8-byte counter), used
// to reproduce Table V's "Root Size" column for a given total memory.
func (g Geometry) RootSoCBytes() int { return 8 }
