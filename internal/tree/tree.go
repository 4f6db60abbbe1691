package tree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"mmt/internal/crypt"
	"mmt/internal/trace"
)

// Tree is one migratable Merkle tree's counter structure. It does not own
// the protected data or the per-line data MACs — the controller (package
// engine) does; Tree owns counters and node MACs, which together with the
// root counter pin both down.
//
// The root counter lives here but is conceptually stored in the SoC
// (trusted); everything else may live in the untrusted meta-zone.
//
// Storage is a flat arena, not per-node heap objects: all counters live in
// one packed []uint64 plane and all MACs in another, mirroring the
// contiguous meta-zone block the paper lays the tree out in (§IV-A1). Each
// node's counter record is its global counter word followed by its 16-bit
// local counters packed four per word, little-endian within the word —
// the same byte order the serialized meta-zone format uses, so
// serialization is a straight memory walk. An idle tree is a handful of
// fixed-size allocations regardless of node count; a path verification
// reads cache-line-adjacent words.
type Tree struct {
	geo     Geometry
	lay     Layout // every coordinate below is read from here
	rootCtr uint64
	probe   *trace.Probe // nil = tracing disabled
	scr     treeScratch

	// The arena. ctr holds every node's packed counter record (ctrOff words
	// in); mac holds one word per node. A node is keyed by its flat index
	// n = lay.Level[l].Base + i in mac and in every other per-node plane.
	ctr []uint64
	mac []uint64

	// Dirty-node tracking for checkpoint streaming: one bit per node. Bits
	// are set where the Update family re-MACs a node or defers its MAC
	// (rehashNode, rehashPath) and cleared by the store layer after a
	// successful commit. The bitset is preallocated at construction so the
	// hot paths stay 0-alloc.
	dirty      []uint64
	dirtyCount int

	// Node state, one bit per node each (DESIGN §19); both are lazy
	// evaluation, neither moves a check. verified: the node's stored MAC
	// was checked good under the bound (engine, guaddr) and nothing it
	// depends on has been written since except by the Update family,
	// which re-establishes it. Bits are set a whole path at a time
	// (VerifyPath) or all at once (VerifyAll) and cleared only wholesale
	// (unverify), so a set bit implies every ancestor's. stale: the Update
	// family changed the node's MAC inputs and left mac[n] to be computed
	// at its next observation (flush); until then mac[n] is not the node's
	// MAC and nothing may read it.
	verified   []uint64
	stale      []uint64
	staleCount int

	// MAC-mask memoization. A node's MAC mask is a pure function of
	// (engine, guaddr, nodeID, parentCounter); the tweak base underneath it
	// drops the counter too. Both are cached per node: maskBase holds the
	// 16-byte DomainNodeMAC tweak base (identity-keyed, valid while bound),
	// maskVal/maskCtr hold the last mask and the parent counter it was
	// derived at. The caches are keyed on exactly the mask inputs, so a
	// hit returns bit-identical values to recomputation — tampered parent
	// counters change the key and miss, preserving tamper detection. bind
	// flushes everything when the engine or address changes (wrong-key
	// verification, migration re-keying).
	bindEng  *crypt.Engine
	bindGU   uint64
	bound    bool
	maskVal  []uint64
	maskCtr  []uint64
	maskOK   []uint64 // bitset, parallel to maskVal
	maskBase []byte   // 16 B per node
	baseOK   []uint64 // bitset, parallel to maskBase
}

// treeScratch holds the tree's reusable working buffers so the per-access
// verify and update paths stay allocation-free. A tree belongs to one
// goroutine (each parallel work unit builds its own controller and trees),
// so one scratch per tree suffices.
type treeScratch struct {
	node []int  // path node (flat index) per level
	slot []int  // path slot per level
	ovf  []bool // Update overflow markers per level

	// keyMasks' staging, one batch of nodes: who misses, the ids or parent
	// counters that go into their PRF blocks, and the blocks themselves.
	miss [maskBatch]int
	ids  [maskBatch]uint32
	ctrs [maskBatch]uint64
	blk  [maskBatch * crypt.MaskBaseSize]byte

	flushN  [maskBatch]int    // flushAll's batch of stale nodes, VerifyAll's of unverified ones,
	flushPC [maskBatch]uint64 // and their parent counters
	oneN    [1]int            // nodeMAC's list of one for a miss outside a keyed batch,
	onePC   [1]uint64         // and its parent counter
}

// maskBatch is how many node masks one pair of multi-block AES calls
// derives at most: a whole path of the geometries in use; a deeper one
// takes several.
const maskBatch = 8

// newTree allocates the arena, every per-node plane and the path scratch
// for a layout. All sizes are read from it; nothing here scales the
// allocation count with the node count.
func newTree(geo Geometry, lay Layout) *Tree {
	L, nodes := len(lay.Level), lay.Nodes
	return &Tree{
		geo:      geo,
		lay:      lay,
		scr:      treeScratch{node: make([]int, L), slot: make([]int, L), ovf: make([]bool, L)},
		ctr:      make([]uint64, lay.CtrWords),
		mac:      make([]uint64, nodes),
		dirty:    make([]uint64, (nodes+63)/64),
		verified: make([]uint64, (nodes+63)/64),
		stale:    make([]uint64, (nodes+63)/64),
		maskVal:  make([]uint64, nodes),
		maskCtr:  make([]uint64, nodes),
		maskOK:   make([]uint64, (nodes+63)/64),
		maskBase: make([]byte, nodes*16),
		baseOK:   make([]uint64, (nodes+63)/64),
	}
}

// ctrOff reports the ctr-plane word offset of level-l node n's record.
func (t *Tree) ctrOff(l, n int) int {
	lv := &t.lay.Level[l]
	return lv.CtrBase + (n-lv.Base)*lv.CtrStride
}

// packed returns level-l node n's counter record — global word plus packed
// locals — as a sub-slice of the arena. Callers only read it; it is the
// polynomial the node MAC hashes.
func (t *Tree) packed(l, n int) []uint64 {
	off := t.ctrOff(l, n)
	return t.ctr[off : off+t.lay.Level[l].CtrStride]
}

// local reports the raw local counter of slot s in level-l node n.
func (t *Tree) local(l, n, s int) uint64 {
	w := t.ctr[t.ctrOff(l, n)+1+s>>2]
	return w >> (uint(s&3) * 16) & 0xFFFF
}

// counter reports the effective counter of slot s in level-l node n:
// Global<<LocalBits | Local[s] (§V-A2's "global-local counter layout").
func (t *Tree) counter(l, n, s int) uint64 {
	return t.ctr[t.ctrOff(l, n)]<<t.geo.localBits() | t.local(l, n, s)
}

// bit reports bit n of a per-node bitset.
func bit(set []uint64, n int) bool { return set[n>>6]>>(uint(n)&63)&1 != 0 }

// mark sets bit n of a per-node bitset and reports whether it was clear.
func mark(set []uint64, n int) bool {
	w, m := n>>6, uint64(1)<<(uint(n)&63)
	was := set[w]&m != 0
	set[w] |= m
	return !was
}

// fill sets bits 0…n-1 of a per-node bitset and no bit past them.
func fill(set []uint64, n int) {
	for w := range set {
		set[w] = ^uint64(0)
	}
	if r := uint(n) & 63; r != 0 {
		set[len(set)-1] = 1<<r - 1
	}
}

// markDirty sets node n's dirty bit. Pure arithmetic on the preallocated
// bitset, safe on every hot path.
func (t *Tree) markDirty(n int) {
	if mark(t.dirty, n) {
		t.dirtyCount++
	}
}

// DirtyCount reports how many nodes changed since the last ClearDirty.
func (t *Tree) DirtyCount() int { return t.dirtyCount }

// DirtyNodes calls fn for every dirty node in ascending (level, index)
// order — flat order, the deterministic enumeration the checkpoint stream
// relies on.
func (t *Tree) DirtyNodes(fn func(level, index int)) {
	for w, word := range t.dirty {
		for ; word != 0; word &= word - 1 {
			n := w*64 + bits.TrailingZeros64(word)
			l := t.lay.levelOf(n)
			fn(l, n-t.lay.Level[l].Base)
		}
	}
}

// ClearDirty resets all dirty bits; the store layer calls it after the
// commit record for the batch containing these nodes is durable.
func (t *Tree) ClearDirty() {
	clear(t.dirty)
	t.dirtyCount = 0
}

// MarkAllDirty flags every node, forcing the next checkpoint to stream
// the full node set (used after structural changes and on fresh trees).
func (t *Tree) MarkAllDirty() {
	fill(t.dirty, t.lay.Nodes)
	t.dirtyCount = t.lay.Nodes
}

// checkLine bounds-checks a line index.
func (t *Tree) checkLine(line int) {
	if line < 0 || line >= t.lay.Lines {
		// internal bounds guard, equivalent to built-in slice indexing
		panic(fmt.Sprintf("tree: line %d out of range [0,%d)", line, t.lay.Lines))
	}
}

// pathOf computes line's path — flat node index and slot per level — into
// the tree's scratch and returns the two level-indexed slices, valid until
// the next call.
func (t *Tree) pathOf(line int) (node, slot []int) {
	t.checkLine(line)
	t.lay.path(line, t.scr.node, t.scr.slot)
	return t.scr.node, t.scr.slot
}

// SetTrace attaches a trace probe counting functional node MAC
// verifications and recomputations. Nil disables tracing.
func (t *Tree) SetTrace(p *trace.Probe) { t.probe = p }

// New builds a tree with all counters zero and MACs computed for guaddr
// under e. It returns an error if the geometry is invalid.
func New(geo Geometry, e *crypt.Engine, guaddr uint64) (*Tree, error) {
	lay, err := geo.Layout()
	if err != nil {
		return nil, err
	}
	t := newTree(geo, lay)
	t.RehashAll(e, guaddr)
	return t, nil
}

// Geometry reports the tree's shape.
func (t *Tree) Geometry() Geometry { return t.geo }

// RootCounter reports the trusted root counter.
func (t *Tree) RootCounter() uint64 { return t.rootCtr }

// SetRootCounter initialises the root counter. Users "can initialize the
// root counter with a given value when the MMT state is changed to valid"
// (§IV-B2); the delegation protocol relies on it only ever increasing
// afterwards. Callers must re-hash (RehashAll) afterwards since the top
// node MAC is keyed by the root counter.
func (t *Tree) SetRootCounter(v uint64) {
	t.settle()
	t.rootCtr = v
}

// BumpRootCounter increments the root counter by one and re-hashes the top
// level (whose MACs are keyed by it). The delegation protocol calls this
// when sealing a closure so that "the counter value in the sender is
// always larger than that in the receiver and is always increased during
// the delegation" (§IV-B2), even when no data write happened in between.
func (t *Tree) BumpRootCounter(e *crypt.Engine, guaddr uint64) {
	t.bind(e, guaddr)
	t.rootCtr++
	t.rehashNode(e, guaddr, 0, 0) // the one top node
}

// NodeRef is a view of one node in the arena. It replaces the old
// *Node aliasing pointer: reads and writes go straight to the flat
// planes. The setters deliberately bypass MAC maintenance and dirty
// tracking — they model an attacker (or snapshot patcher) writing the
// untrusted meta-zone behind the controller's back; tests use them to
// simulate tampering. Being external writers, they settle the tree first:
// what they overwrite is what an eager tree would hold, and no node stays
// verified across them.
type NodeRef struct {
	t     *Tree
	level int
	n     int // flat index
}

// Node returns a view of the node at (level, index).
func (t *Tree) Node(level, index int) NodeRef {
	return NodeRef{t: t, level: level, n: t.lay.Level[level].Base + index}
}

// Global reads the node's global counter word.
func (n NodeRef) Global() uint64 { return n.t.ctr[n.t.ctrOff(n.level, n.n)] }

// SetGlobal overwrites the node's global counter word.
func (n NodeRef) SetGlobal(v uint64) {
	n.t.settle()
	n.t.ctr[n.t.ctrOff(n.level, n.n)] = v
}

// Local reads the raw local counter of slot s.
func (n NodeRef) Local(s int) uint64 { return n.t.local(n.level, n.n, s) }

// SetLocal overwrites the local counter of slot s (truncated to 16 bits,
// the packed field width).
func (n NodeRef) SetLocal(s int, v uint64) {
	t := n.t
	t.settle()
	off := t.ctrOff(n.level, n.n) + 1 + s>>2
	sh := uint(s&3) * 16
	t.ctr[off] = t.ctr[off]&^(uint64(0xFFFF)<<sh) | (v&0xFFFF)<<sh
}

// MAC reads the node's stored MAC.
func (n NodeRef) MAC() uint64 {
	n.t.flush(n.level, n.n)
	return n.t.mac[n.n]
}

// SetMAC overwrites the node's stored MAC.
func (n NodeRef) SetMAC(v uint64) {
	n.t.settle()
	n.t.mac[n.n] = v
}

// LeafCounter reports the effective counter protecting the given line;
// this is the counter the crypto engine mixes into the line's OTP and MAC.
// Called once per protected access, so it computes the leaf coordinates
// directly instead of materialising the whole path.
func (t *Tree) LeafCounter(line int) uint64 {
	t.checkLine(line)
	leaf := len(t.lay.Level) - 1
	lv := &t.lay.Level[leaf]
	return t.counter(leaf, lv.Base+line/lv.Arity, line%lv.Arity)
}

// LeafCounters writes the effective counters of the len(dst) consecutive
// lines starting at line to dst — LeafCounter for each, in one stepped pass
// over the leaf records: a node's offset and global word are read once per
// node, not divided out and loaded again per line. It reports the index of
// the first entry it changed, len(dst) when dst already held every counter:
// a caller that keeps per-line state derived at dst (the engine's key
// records) learns from where that state is stale.
func (t *Tree) LeafCounters(line int, dst []uint64) (changed int) {
	changed = len(dst)
	if len(dst) == 0 {
		return changed
	}
	t.checkLine(line)
	t.checkLine(line + len(dst) - 1)
	leaf := len(t.lay.Level) - 1
	lv := &t.lay.Level[leaf]
	n, s := lv.Base+line/lv.Arity, line%lv.Arity
	for i := 0; i < len(dst); n, s = n+1, 0 {
		rec := t.packed(leaf, n)
		global := rec[0] << t.geo.localBits()
		for ; s < lv.Arity && i < len(dst); s, i = s+1, i+1 {
			ctr := global | rec[1+s>>2]>>(uint(s&3)*16)&0xFFFF
			if dst[i] != ctr {
				dst[i], changed = ctr, min(changed, i)
			}
		}
	}
	return changed
}

// parentCounter reports the counter covering level-l node n: the root
// counter for level 0, otherwise the effective counter in the parent's slot.
func (t *Tree) parentCounter(l, n int) uint64 {
	if l == 0 {
		return t.rootCtr
	}
	i, up := n-t.lay.Level[l].Base, &t.lay.Level[l-1]
	return t.counter(l-1, up.Base+i/up.Arity, i%up.Arity)
}

// nodeID packs a node's coordinates into the 32-bit id mixed into its MAC,
// preventing node splicing within one MMT.
func nodeID(level, index int) uint32 { return uint32(level)<<24 | uint32(index)&0xFFFFFF }

// bind points the tree at (e, guaddr). Engines are compared by identity: a
// re-created engine under the same key conservatively misses.
func (t *Tree) bind(e *crypt.Engine, guaddr uint64) {
	if !t.bound || t.bindEng != e || t.bindGU != guaddr {
		t.rebind(e, guaddr)
	}
}

// rebind switches the binding: the deferred MACs are computed under the
// binding they were deferred under, then the mask caches and every
// verification — all of them statements about the old key or address — go.
// Kept out of line so that bind's compare inlines into VerifyPath.
//
//go:noinline
func (t *Tree) rebind(e *crypt.Engine, guaddr uint64) {
	t.settle()
	clear(t.maskOK)
	clear(t.baseOK)
	t.bindEng, t.bindGU, t.bound = e, guaddr, true
}

// settle is the first thing every writer outside the Update family does
// (the NodeRef setters, SetNodeFromBytes, SetRootCounter, rebind): it
// computes every deferred MAC, so what is about to be overwritten — and
// everything else — is what an eager tree would hold and no later flush
// can launder the write, and it forgets every verification, because any
// node's MAC inputs may be about to change.
func (t *Tree) settle() {
	t.flushAll()
	clear(t.verified)
}

// flush computes level-l node n's MAC if it was deferred. Every reader of
// mac[n] — checkNode, AppendNode, NodeRef.MAC; Serialize, Clone all — first.
func (t *Tree) flush(l, n int) {
	if t.unstale(n) {
		t.mac[n] = t.nodeMAC(t.bindEng, t.bindGU, l, n, t.parentCounter(l, n))
	}
}

// unstale clears node n's stale bit and reports whether it was set.
func (t *Tree) unstale(n int) bool {
	was := bit(t.stale, n)
	if was {
		t.stale[n>>6] &^= 1 << (uint(n) & 63)
		t.staleCount--
	}
	return was
}

// flushAll computes every deferred MAC, the masks of a batch of nodes keyed
// together. A node is only ever stale under the current binding (rebind
// settles first), and its MAC inputs are as the Update that deferred it
// left them: any later Update that moved one of them deferred or re-MACed
// the node again.
func (t *Tree) flushAll() {
	if t.staleCount == 0 {
		return
	}
	s := &t.scr
	k := 0
	for w, word := range t.stale {
		for ; word != 0; word &= word - 1 {
			n := w*64 + bits.TrailingZeros64(word)
			s.flushN[k], s.flushPC[k] = n, t.parentCounter(t.lay.levelOf(n), n)
			if k++; k == maskBatch {
				t.flushBatch(k)
				k = 0
			}
		}
		t.stale[w] = 0
	}
	t.flushBatch(k)
	t.staleCount = 0
}

// flushBatch stores the MACs of the first k nodes staged in the scratch.
func (t *Tree) flushBatch(k int) {
	s := &t.scr
	t.keyMasks(t.bindEng, t.bindGU, s.flushN[:k], s.flushPC[:k])
	for i, n := range s.flushN[:k] {
		t.mac[n] = t.nodeMAC(t.bindEng, t.bindGU, t.lay.levelOf(n), n, s.flushPC[i])
	}
}

// keyMasks brings the cached masks of the listed nodes (flat indices) up
// to the parent counters given beside them, batch by batch in two
// multi-block AES calls, one per level of the tweak PRF: the bases of the
// nodes on their first touch since bind, then the masks of the nodes whose
// cached mask is missing or was derived at another counter. The blocks of
// a batch are independent, so a caller about to MAC a whole path lists it
// before MACing any of it. Callers must have bound (e, guaddr) first. The
// values are always exactly AES-mask(guaddr, nodeID, pcs[k]) — the cache
// and the batching change cost, never output.
func (t *Tree) keyMasks(e *crypt.Engine, guaddr uint64, nodes []int, pcs []uint64) {
	const size = crypt.MaskBaseSize
	s := &t.scr
	for ; len(nodes) > 0; nodes, pcs = nodes[min(len(nodes), maskBatch):], pcs[min(len(pcs), maskBatch):] {
		batch := nodes[:min(len(nodes), maskBatch)]
		k := 0
		for _, n := range batch {
			if t.baseOK[n>>6]>>(uint(n)&63)&1 == 0 {
				l := t.lay.levelOf(n)
				s.miss[k], s.ids[k] = n, nodeID(l, n-t.lay.Level[l].Base)
				k++
			}
		}
		if k > 0 {
			e.MaskBases(guaddr, crypt.DomainNodeMAC, s.ids[:k], s.blk[:])
			for i, n := range s.miss[:k] {
				*(*[size]byte)(t.maskBase[n*size:]) = *(*[size]byte)(s.blk[i*size:])
				t.baseOK[n>>6] |= 1 << (uint(n) & 63)
			}
		}
		k = 0
		for i, n := range batch {
			if t.maskOK[n>>6]>>(uint(n)&63)&1 == 0 || t.maskCtr[n] != pcs[i] {
				*(*[size]byte)(s.blk[k*size:]) = *(*[size]byte)(t.maskBase[n*size:])
				s.miss[k], s.ctrs[k] = n, pcs[i]
				k++
			}
		}
		if k > 0 {
			e.MasksFromBases(s.blk[:], s.ctrs[:k])
			for i, n := range s.miss[:k] {
				t.maskVal[n], t.maskCtr[n] = crypt.Mask(s.blk[i*size:]), s.ctrs[i]
				t.maskOK[n>>6] |= 1 << (uint(n) & 63)
			}
		}
	}
}

// nodeMAC computes the MAC level-l node n should carry under the covering
// parent counter pc: the GF hash of its counter record, XOR its mask at pc
// — from the per-node cache when the key matches, which it does whenever
// the caller listed n in a keyMasks since pc last moved, and through a
// keyMasks of the one node otherwise. Callers must have bound (e, guaddr)
// first.
func (t *Tree) nodeMAC(e *crypt.Engine, guaddr uint64, l, n int, pc uint64) uint64 {
	if t.maskOK[n>>6]>>(uint(n)&63)&1 == 0 || t.maskCtr[n] != pc {
		s := &t.scr
		s.oneN[0], s.onePC[0] = n, pc
		t.keyMasks(e, guaddr, s.oneN[:], s.onePC[:])
	}
	return e.NodeHash(pc, uint64(t.lay.Level[l].Arity), t.packed(l, n)) ^ t.maskVal[n]
}

// checkNode compares level-l node n's stored MAC with the one it should
// carry, counting the verification. A verified node is the comparison
// already made. Callers must have bound (e, guaddr) first.
func (t *Tree) checkNode(e *crypt.Engine, guaddr uint64, l, n int) error {
	t.probe.Count(trace.CtrTreeNodeVerifies, 1)
	if bit(t.verified, n) {
		return nil
	}
	t.flush(l, n)
	if !crypt.TagEqual(t.mac[n], t.nodeMAC(e, guaddr, l, n, t.parentCounter(l, n))) {
		t.probe.Count(trace.CtrTreeNodeVerifyFails, 1)
		return fmt.Errorf("%w: node level %d index %d", ErrIntegrity, l, n-t.lay.Level[l].Base)
	}
	return nil
}

// rehashNode recomputes the MAC of level-l node n now, counting the
// recomputation and marking the node dirty; a MAC deferred earlier is
// superseded.
func (t *Tree) rehashNode(e *crypt.Engine, guaddr uint64, l, n int) {
	t.bind(e, guaddr)
	t.probe.Count(trace.CtrTreeNodeRehashes, 1)
	t.markDirty(n)
	t.unstale(n)
	t.mac[n] = t.nodeMAC(e, guaddr, l, n, t.parentCounter(l, n))
}

// rehashPath is the re-MAC of a whole path whose counters an Update has
// just moved, deferred: each node is counted and marked dirty as
// re-MACed, and marked stale, and its MAC is computed against the counters
// as they stand when it is next observed (flush) — once, however many
// Updates pass through the node before then. Callers must have bound the
// (engine, guaddr) the Update came with.
func (t *Tree) rehashPath(node []int) {
	t.probe.Count(trace.CtrTreeNodeRehashes, uint64(len(node)))
	for _, n := range node {
		t.markDirty(n)
		if mark(t.stale, n) {
			t.staleCount++
		}
	}
}

// RehashAll recomputes every node MAC (each depends on counters only, so
// the order is free). Used after bulk initialisation or after
// SetRootCounter.
func (t *Tree) RehashAll(e *crypt.Engine, guaddr uint64) {
	for n := 0; n < t.lay.Nodes; n++ {
		t.rehashNode(e, guaddr, t.lay.levelOf(n), n)
	}
}

// ErrIntegrity is returned when a node MAC check fails: the meta-zone or a
// transferred closure was tampered with, replayed, or decoded under the
// wrong key/address.
var ErrIntegrity = errors.New("tree: integrity check failed")

// VerifyPath checks node MACs from the leaf covering line up to the root
// counter — the integrity-tree engine's read-path check ("checks hashes
// stored in tree nodes recursively up to the MMT root", §V-A2) — stopping
// at the first mismatch. A verified leaf has a verified path, so the warm
// check is one division and one bit test; a path that passes node by node
// is marked verified whole.
func (t *Tree) VerifyPath(e *crypt.Engine, guaddr uint64, line int) error {
	t.checkLine(line)
	t.bind(e, guaddr)
	L := len(t.lay.Level)
	if lv := &t.lay.Level[L-1]; bit(t.verified, lv.Base+line/lv.Arity) {
		t.probe.Count(trace.CtrTreeNodeVerifies, uint64(L))
		return nil
	}
	node, _ := t.pathOf(line)
	for l := L - 1; l >= 0; l-- {
		if err := t.checkNode(e, guaddr, l, node[l]); err != nil {
			return err
		}
	}
	for _, n := range node {
		mark(t.verified, n)
	}
	return nil
}

// VerifyAll checks every node MAC in (level, index) order, stopping at
// the first mismatch; the closure-delegation engine runs this after
// unsealing a transferred root. A tree that passes is verified whole.
// The masks of each maskBatch nodes are keyed together before any of them
// is checked, as flushAll keys the MACs it computes.
func (t *Tree) VerifyAll(e *crypt.Engine, guaddr uint64) error {
	t.bind(e, guaddr)
	t.flushAll() // in batches; checkNode would flush node by node
	s := &t.scr
	for first := 0; first < t.lay.Nodes; first += maskBatch {
		end, k := min(first+maskBatch, t.lay.Nodes), 0
		for n := first; n < end; n++ {
			if !bit(t.verified, n) {
				s.flushN[k], s.flushPC[k] = n, t.parentCounter(t.lay.levelOf(n), n)
				k++
			}
		}
		t.keyMasks(e, guaddr, s.flushN[:k], s.flushPC[:k])
		for n := first; n < end; n++ {
			if err := t.checkNode(e, guaddr, t.lay.levelOf(n), n); err != nil {
				return err
			}
		}
	}
	fill(t.verified, t.lay.Nodes)
	return nil
}

// UpdateResult describes the side effects of one write-path counter bump.
type UpdateResult struct {
	// LeafCounter is the new effective counter for the written line; the
	// caller re-encrypts the line under it.
	LeafCounter uint64
	// ReencryptLines lists the other lines whose counters changed because a
	// leaf-level local counter overflowed; the caller must re-encrypt and
	// re-MAC them at their new counters (returned by LeafCounter queries).
	ReencryptLines []int
	// NodesTouched counts node MAC recomputations (for cost accounting).
	NodesTouched int
	// Overflowed reports whether any level overflowed.
	Overflowed bool
}

// Update increments the counters along line's path — leaf slot, every
// interior slot, and the root counter — handling local-counter overflow,
// then re-MACs the affected nodes: the path's by deferral (rehashPath), an
// overflowed node's other children at once. This is the write path of the
// integrity tree engine.
func (t *Tree) Update(e *crypt.Engine, guaddr uint64, line int) UpdateResult {
	t.bind(e, guaddr)
	node, slot := t.pathOf(line)
	L := len(node)
	res := UpdateResult{}
	maxLocal := uint64(1)<<t.geo.localBits() - 1

	// Bump every counter on the path first (leaf to root), tracking
	// overflow, then rehash: MACs depend on parent counters, so they must
	// be computed against the final values.
	overflowAt := t.scr.ovf
	clear(overflowAt)
	for l := L - 1; l >= 0; l-- {
		off := t.ctrOff(l, node[l])
		w := off + 1 + slot[l]>>2
		sh := uint(slot[l]&3) * 16
		if t.ctr[w]>>sh&0xFFFF == maxLocal {
			t.ctr[off]++ // global counter
			clear(t.ctr[off+1 : off+t.lay.Level[l].CtrStride])
			overflowAt[l] = true
			res.Overflowed = true
		} else {
			// The field is below maxLocal <= 0xFFFF, so the add never
			// carries into the neighbouring packed field.
			t.ctr[w] += 1 << sh
		}
	}
	t.rootCtr++

	// Rehash. Path nodes always need it (their counters and their parent
	// counters changed); theirs is deferred. An overflow at level l
	// additionally invalidates the MACs of all children of the overflowed
	// node (their parent counters were reset), re-MACed here and now, and a
	// leaf overflow forces data re-encryption.
	t.rehashPath(node)
	res.NodesTouched = L
	for l := 0; l < L; l++ {
		if !overflowAt[l] {
			continue
		}
		lv := &t.lay.Level[l]
		first := (node[l] - lv.Base) * lv.Arity // first child: a line under a leaf, a node index below
		if l == L-1 {
			// Leaf overflow: all lines under this leaf changed counters.
			for ln := first; ln < first+lv.Arity; ln++ {
				if ln != line {
					// The one allocation of the overflow procedure, once per
					// global-counter exhaustion (TestOverflowAllocs).
					res.ReencryptLines = append(res.ReencryptLines, ln)
				}
			}
			continue
		}
		// Interior overflow: all child nodes must be re-MACed.
		first += t.lay.Level[l+1].Base
		for child := first; child < first+lv.Arity; child++ {
			if child != node[l+1] { // path child is rehashed anyway
				t.rehashNode(e, guaddr, l+1, child)
				res.NodesTouched++
			}
		}
	}
	res.LeafCounter = t.counter(L-1, node[L-1], slot[L-1])
	return res
}

// UpdateRun is Update for the n consecutive lines starting at line, which
// must share one leaf node and therefore one whole path: the n leaf locals
// advance by one, every upper slot on the path and the root counter by n,
// and each path node's re-MAC is deferred once. The arena ends exactly as
// n Updates in line order would leave it — they would re-MAC the same
// nodes n times and keep only the last result — and each line's new
// counter is LeafCounter(line).
//
// It reports false, having changed nothing, when some counter on the path
// would overflow within the run (or the n lines are not a run: they leave
// the leaf node); the caller then advances with Update, which carries the
// overflow procedure.
func (t *Tree) UpdateRun(e *crypt.Engine, guaddr uint64, line, n int) bool {
	t.bind(e, guaddr)
	node, slot := t.pathOf(line)
	leaf := len(node) - 1
	if n < 1 || slot[leaf]+n > t.lay.Level[leaf].Arity {
		return false
	}
	maxLocal := uint64(1)<<t.geo.localBits() - 1
	for s := slot[leaf]; s < slot[leaf]+n; s++ {
		if t.local(leaf, node[leaf], s) == maxLocal {
			return false
		}
	}
	for l := 0; l < leaf; l++ {
		if t.local(l, node[l], slot[l])+uint64(n) > maxLocal {
			return false
		}
	}
	// No field passes maxLocal <= 0xFFFF, so no add carries into the
	// neighbouring packed field.
	off := t.ctrOff(leaf, node[leaf]) + 1
	for s := slot[leaf]; s < slot[leaf]+n; s++ {
		t.ctr[off+s>>2] += 1 << (uint(s&3) * 16)
	}
	for l := 0; l < leaf; l++ {
		t.ctr[t.ctrOff(l, node[l])+1+slot[l]>>2] += uint64(n) << (uint(slot[l]&3) * 16)
	}
	t.rootCtr += uint64(n)
	t.rehashPath(node)
	return true
}

// appendNode appends level-l node n's serialized record to dst: global u64,
// locals u16 in slot order, MAC u64, all little endian — the locals are the
// arena words' LE bytes (the packed in-word field order is little-endian
// too), the final partial word truncated. Callers flush the node first.
func (t *Tree) appendNode(dst []byte, l, n int) []byte {
	lv := &t.lay.Level[l]
	words := t.packed(l, n)
	// The global and the whole words of locals, then the bytes of a last,
	// partial word up to where the MAC starts.
	whole := 1 + lv.Arity/4
	for _, w := range words[:whole] {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	if whole < len(words) {
		for j, w := 8*whole, words[whole]; j < lv.NodeSize-8; j, w = j+1, w>>8 {
			dst = append(dst, byte(w))
		}
	}
	return binary.LittleEndian.AppendUint64(dst, t.mac[n])
}

// setNodeFromBytes decodes one serialized node record into the arena, the
// mirror of appendNode: whole words at a time, single bytes only for a last,
// partial word of locals. Its unused high fields stay zero — an invariant
// every arena record maintains so hashes and re-serialization agree.
func (t *Tree) setNodeFromBytes(l, n int, b []byte) {
	lv := &t.lay.Level[l]
	b = b[:lv.NodeSize]
	off, whole := t.ctrOff(l, n), 1+lv.Arity/4
	words := t.ctr[off : off+lv.CtrStride]
	for k := range words[:whole] {
		words[k] = binary.LittleEndian.Uint64(b[8*k:])
	}
	if whole < len(words) {
		var w uint64
		for j := lv.NodeSize - 9; j >= 8*whole; j-- {
			w = w<<8 | uint64(b[j])
		}
		words[whole] = w
	}
	t.mac[n] = binary.LittleEndian.Uint64(b[lv.NodeSize-8:])
}

// Serialize encodes all tree nodes (not the root counter — that travels
// sealed inside the MMT root) in the meta-zone layout: per node, global
// counter, locals, MAC, little endian, levels top-down.
func (t *Tree) Serialize() []byte {
	t.flushAll()
	out := make([]byte, 0, t.lay.NodesSize)
	for n := 0; n < t.lay.Nodes; n++ {
		out = t.appendNode(out, t.lay.levelOf(n), n)
	}
	return out
}

// Deserialize decodes a serialized node set into a tree with the given
// geometry. The root counter is zero until SetRootCounter; callers verify
// with VerifyAll after installing the unsealed root counter.
func Deserialize(geo Geometry, data []byte) (*Tree, error) {
	lay, err := geo.Layout()
	if err != nil {
		return nil, err
	}
	if len(data) != lay.NodesSize {
		return nil, fmt.Errorf("tree: serialized size %d, want %d", len(data), lay.NodesSize)
	}
	t := newTree(geo, lay)
	for n := 0; n < lay.Nodes; n++ {
		l := lay.levelOf(n)
		t.setNodeFromBytes(l, n, data)
		data = data[lay.Level[l].NodeSize:]
	}
	return t, nil
}

// AppendNode appends the serialized bytes of node (l, i) — the same
// per-node layout Serialize uses (global u64, locals u16, MAC u64, little
// endian) — to dst and returns the extended slice. This is the unit record
// of the mmt-store/v1 dirty-node stream.
func (t *Tree) AppendNode(dst []byte, l, i int) []byte {
	n := t.lay.Level[l].Base + i
	t.flush(l, n)
	return t.appendNode(dst, l, n)
}

// SetNodeFromBytes overwrites node (l, i) from its serialized form. Used
// by snapshot recovery when patching a node delta into a reloaded tree;
// callers re-verify with VerifyAll afterwards.
func (t *Tree) SetNodeFromBytes(l, i int, b []byte) error {
	if l < 0 || l >= len(t.lay.Level) || i < 0 || i >= t.lay.Level[l].Nodes {
		return fmt.Errorf("tree: node (%d,%d) out of range", l, i)
	}
	if lv := &t.lay.Level[l]; len(b) != lv.NodeSize {
		return fmt.Errorf("tree: node bytes %d, want %d", len(b), lv.NodeSize)
	}
	t.settle()
	t.setNodeFromBytes(l, t.lay.Level[l].Base+i, b)
	return nil
}

// Clone deep-copies the tree (used for read-only ownership-copy mode).
func (t *Tree) Clone() *Tree {
	t.flushAll()
	c := newTree(t.geo, t.lay)
	c.rootCtr, c.probe = t.rootCtr, t.probe
	copy(c.ctr, t.ctr)
	copy(c.mac, t.mac)
	c.MarkAllDirty() // the clone has never been checkpointed
	return c
}
