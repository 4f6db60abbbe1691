package tree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"mmt/internal/crypt"
	"mmt/internal/trace"
)

// eagerTree is the tree as it was before node state existed (DESIGN §19),
// written to be read: one struct per node, no arena, no mask cache, no
// batching. Every MAC is stored, recomputed with crypt.Engine.NodeMAC — the
// slow reference of crypt/oracle.go — the moment an Update moves one of its
// inputs, and every verification is a recomputation. It is what Tree's
// verified and stale bits must be indistinguishable from.
type eagerTree struct {
	arity     []int
	localBits uint
	level     [][]eagerNode
	root      uint64

	verifies, fails, rehashes uint64 // the three tree trace counters
}

type eagerNode struct {
	global uint64
	local  []uint64
	mac    uint64
	dirty  bool
}

func newEager(geo Geometry, e *crypt.Engine, guaddr uint64) *eagerTree {
	r := &eagerTree{arity: geo.Arities, localBits: geo.localBits()}
	nodes := 1
	for _, a := range geo.Arities {
		lv := make([]eagerNode, nodes)
		for i := range lv {
			lv[i].local = make([]uint64, a)
		}
		r.level = append(r.level, lv)
		nodes *= a
	}
	r.rehashAll(e, guaddr)
	return r
}

// path reports the covering node's index and the slot in it per level.
func (r *eagerTree) path(line int) (idx, slot []int) {
	L := len(r.level)
	idx, slot = make([]int, L), make([]int, L)
	for l, i := L-1, line; l >= 0; l-- {
		slot[l], i = i%r.arity[l], i/r.arity[l]
		idx[l] = i
	}
	return idx, slot
}

func (r *eagerTree) counter(l, i, s int) uint64 {
	return r.level[l][i].global<<r.localBits | r.level[l][i].local[s]
}

func (r *eagerTree) parentCounter(l, i int) uint64 {
	if l == 0 {
		return r.root
	}
	return r.counter(l-1, i/r.arity[l-1], i%r.arity[l-1])
}

func (r *eagerTree) nodeMAC(e *crypt.Engine, guaddr uint64, l, i int) uint64 {
	nd := &r.level[l][i]
	packed := make([]uint64, 1+(len(nd.local)+3)/4)
	packed[0] = nd.global
	for s, v := range nd.local {
		packed[1+s/4] |= v << (16 * uint(s%4))
	}
	return e.NodeMAC(guaddr, uint32(l)<<24|uint32(i), r.parentCounter(l, i), uint64(r.arity[l]), packed)
}

func (r *eagerTree) rehash(e *crypt.Engine, guaddr uint64, l, i int) {
	r.rehashes++
	r.level[l][i].dirty = true
	r.level[l][i].mac = r.nodeMAC(e, guaddr, l, i)
}

func (r *eagerTree) rehashAll(e *crypt.Engine, guaddr uint64) {
	for l := range r.level {
		for i := range r.level[l] {
			r.rehash(e, guaddr, l, i)
		}
	}
}

func (r *eagerTree) check(e *crypt.Engine, guaddr uint64, l, i int) error {
	r.verifies++
	if r.level[l][i].mac != r.nodeMAC(e, guaddr, l, i) {
		r.fails++
		return fmt.Errorf("%w: node level %d index %d", ErrIntegrity, l, i)
	}
	return nil
}

func (r *eagerTree) verifyPath(e *crypt.Engine, guaddr uint64, line int) error {
	idx, _ := r.path(line)
	for l := len(idx) - 1; l >= 0; l-- {
		if err := r.check(e, guaddr, l, idx[l]); err != nil {
			return err
		}
	}
	return nil
}

func (r *eagerTree) verifyAll(e *crypt.Engine, guaddr uint64) error {
	for l := range r.level {
		for i := range r.level[l] {
			if err := r.check(e, guaddr, l, i); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *eagerTree) update(e *crypt.Engine, guaddr uint64, line int) UpdateResult {
	idx, slot := r.path(line)
	L := len(idx)
	maxLocal := uint64(1)<<r.localBits - 1
	res := UpdateResult{NodesTouched: L}
	overflow := make([]bool, L)
	for l := L - 1; l >= 0; l-- {
		nd := &r.level[l][idx[l]]
		if nd.local[slot[l]] == maxLocal {
			nd.global++
			clear(nd.local)
			overflow[l], res.Overflowed = true, true
		} else {
			nd.local[slot[l]]++
		}
	}
	r.root++
	for l, i := range idx {
		r.rehash(e, guaddr, l, i)
	}
	for l, i := range idx {
		if !overflow[l] {
			continue
		}
		for child := i * r.arity[l]; child < (i+1)*r.arity[l]; child++ {
			switch {
			case l == L-1 && child != line:
				res.ReencryptLines = append(res.ReencryptLines, child)
			case l < L-1 && child != idx[l+1]:
				r.rehash(e, guaddr, l+1, child)
				res.NodesTouched++
			}
		}
	}
	res.LeafCounter = r.counter(L-1, idx[L-1], slot[L-1])
	return res
}

// updateRun moves the counters as n updates in line order would and re-MACs
// the shared path once, or does nothing and reports false when one of the
// updates would overflow or the lines leave the leaf.
func (r *eagerTree) updateRun(e *crypt.Engine, guaddr uint64, line, n int) bool {
	idx, slot := r.path(line)
	leaf := len(idx) - 1
	maxLocal := uint64(1)<<r.localBits - 1
	if n < 1 || slot[leaf]+n > r.arity[leaf] {
		return false
	}
	for s := slot[leaf]; s < slot[leaf]+n; s++ {
		if r.level[leaf][idx[leaf]].local[s] == maxLocal {
			return false
		}
	}
	for l := 0; l < leaf; l++ {
		if r.level[l][idx[l]].local[slot[l]]+uint64(n) > maxLocal {
			return false
		}
	}
	for s := slot[leaf]; s < slot[leaf]+n; s++ {
		r.level[leaf][idx[leaf]].local[s]++
	}
	for l := 0; l < leaf; l++ {
		r.level[l][idx[l]].local[slot[l]] += uint64(n)
	}
	r.root += uint64(n)
	for l, i := range idx {
		r.rehash(e, guaddr, l, i)
	}
	return true
}

func (r *eagerTree) appendNode(dst []byte, l, i int) []byte {
	nd := &r.level[l][i]
	dst = binary.LittleEndian.AppendUint64(dst, nd.global)
	for _, v := range nd.local {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
	}
	return binary.LittleEndian.AppendUint64(dst, nd.mac)
}

func (r *eagerTree) setNodeFromBytes(l, i int, b []byte) {
	nd := &r.level[l][i]
	nd.global = binary.LittleEndian.Uint64(b)
	for s := range nd.local {
		nd.local[s] = uint64(binary.LittleEndian.Uint16(b[8+2*s:]))
	}
	nd.mac = binary.LittleEndian.Uint64(b[8+2*len(nd.local):])
}

func (r *eagerTree) serialize() []byte {
	var out []byte
	for l := range r.level {
		for i := range r.level[l] {
			out = r.appendNode(out, l, i)
		}
	}
	return out
}

func (r *eagerTree) setDirty(v bool) {
	for l := range r.level {
		for i := range r.level[l] {
			r.level[l][i].dirty = v
		}
	}
}

func (r *eagerTree) dirtyNodes() (out [][2]int) {
	for l := range r.level {
		for i := range r.level[l] {
			if r.level[l][i].dirty {
				out = append(out, [2]int{l, i})
			}
		}
	}
	return out
}

// lazyGeometries are the shapes the differential runs over: the small test
// tree; two whose narrow locals force leaf and interior overflow within a
// few updates; and a nine-level one, whose path is longer than one
// maskBatch, so a flushAll keys its stale nodes in several batches.
var lazyGeometries = []Geometry{
	{Arities: []int{2, 3, 4}},
	{Arities: []int{2, 2, 2}, LocalBits: 1},
	{Arities: []int{3, 4}, LocalBits: 2},
	{Arities: []int{2, 2, 2, 2, 2, 2, 2, 2, 3}},
}

// lazyOps maps an op's first script byte (mod len) to what it does; the
// Update family is listed more than once because everything else acts on
// what it leaves behind.
var lazyOps = []string{
	"update", "update", "update", "update", "updateRun", "updateRun",
	"verifyPath", "verifyPath", "verifyPath", "verifyAll", "bumpRoot",
	"flipGlobal", "flipLocal", "flipMAC", "flipNodeByte", "flipRoot", "rebind",
	"clearDirty", "rehashAll",
	"serialize", "appendNode", "nodeMAC", "clone",
}

// binding is an (engine, address) pair a tree is verified or updated under.
type binding struct {
	e      *crypt.Engine
	guaddr uint64
}

func secondEngine() *crypt.Engine {
	return crypt.NewEngine(crypt.KeyFromBytes([]byte("second-engine")))
}

// lazyReach is what a script got to: updates that overflowed, verifies
// that failed, and op boundaries crossed with MACs still deferred.
type lazyReach struct{ overflows, fails, deferred int }

// lazyVsEager runs one op script on a Tree and on the eager reference and
// fails on the first difference a caller could see. An op is four script
// bytes: what (lazyOps), a line (2 bytes), and an argument. After every op
// the counters, the root counter, the dirty set and count, the op's result
// or error text and the three trace counters are compared; the serialized
// bytes — hence every MAC — when the script observes them (serialize,
// appendNode, nodeMAC, clone), at the end, and with observeEvery after
// every op. Without observeEvery deferred MACs live across ops, which is
// the state under test; with it every op ends in a flush.
//
// The flip ops are the external mutators: each XORs one bit into a node's
// global, a local, its MAC, a byte of its serialized record, or the root
// counter, on both sides, so the same op again is its undo. rebind moves to
// the next of three (engine, address) pairs, which every later op uses.
func lazyVsEager(t testing.TB, geo Geometry, observeEvery bool, script []byte) (reached lazyReach) {
	t.Helper()
	e1, e2 := testEngine(), secondEngine()
	bindings := []binding{{e1, guaddr}, {e2, guaddr}, {e1, guaddr + 1}}
	cur := bindings[0]

	sink := trace.NewSink()
	tr := mustNew(geo, cur.e, cur.guaddr)
	ref := newEager(geo, cur.e, cur.guaddr)
	tr.SetTrace(sink.Probe("lazy"))
	ref.rehashes = 0 // New's RehashAll ran before the probe was attached
	lay := tr.lay
	L := len(lay.Level)

	sameBytes := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: serialized bytes differ from the eager reference\nlazy:  %x\neager: %x", what, got, want)
		}
	}
	sameErr := func(what string, got, want error) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("%s: error %v, eager reference %v", what, got, want)
		}
	}
	for op := 0; len(script) >= 4; op, script = op+1, script[4:] {
		kind := lazyOps[int(script[0])%len(lazyOps)]
		line := int(binary.LittleEndian.Uint16(script[1:])) % lay.Lines
		arg := int(script[3])
		l := arg % L
		i := line / lay.Level[l].Span // the level-l node over line
		what := fmt.Sprintf("op %d (%s, line %d, arg %d, node (%d,%d))", op, kind, line, arg, l, i)
		node := tr.Node(l, i)
		switch kind {
		case "update":
			got, want := tr.Update(cur.e, cur.guaddr, line), ref.update(cur.e, cur.guaddr, line)
			if got.LeafCounter != want.LeafCounter || got.NodesTouched != want.NodesTouched ||
				got.Overflowed != want.Overflowed || !slices.Equal(got.ReencryptLines, want.ReencryptLines) {
				t.Fatalf("%s: result %+v, eager reference %+v", what, got, want)
			}
			if got.Overflowed {
				reached.overflows++
			}
		case "updateRun":
			leaf := lay.Level[L-1].Arity
			n := 1 + arg%(leaf-line%leaf)
			if got, want := tr.UpdateRun(cur.e, cur.guaddr, line, n), ref.updateRun(cur.e, cur.guaddr, line, n); got != want {
				t.Fatalf("%s: UpdateRun of %d lines = %v, eager reference %v", what, n, got, want)
			}
		case "verifyPath":
			sameErr(what, tr.VerifyPath(cur.e, cur.guaddr, line), ref.verifyPath(cur.e, cur.guaddr, line))
		case "verifyAll":
			sameErr(what, tr.VerifyAll(cur.e, cur.guaddr), ref.verifyAll(cur.e, cur.guaddr))
		case "bumpRoot":
			tr.BumpRootCounter(cur.e, cur.guaddr)
			ref.root++
			ref.rehash(cur.e, cur.guaddr, 0, 0)
		case "flipGlobal":
			node.SetGlobal(node.Global() ^ 1)
			ref.level[l][i].global ^= 1
		case "flipLocal":
			s := line / (lay.Level[l].Span / lay.Level[l].Arity) % lay.Level[l].Arity // the slot on line's path
			node.SetLocal(s, node.Local(s)^1)
			ref.level[l][i].local[s] ^= 1
		case "flipMAC":
			node.SetMAC(node.MAC() ^ 1<<(uint(arg)%64))
			ref.level[l][i].mac ^= 1 << (uint(arg) % 64)
		case "flipNodeByte":
			b := tr.AppendNode(nil, l, i)
			sameBytes(what, b, ref.appendNode(nil, l, i))
			b[arg%len(b)] ^= 0x10
			if err := tr.SetNodeFromBytes(l, i, b); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			ref.setNodeFromBytes(l, i, b)
		case "flipRoot":
			tr.SetRootCounter(tr.RootCounter() ^ 1<<(uint(arg)%8))
			ref.root ^= 1 << (uint(arg) % 8)
		case "rebind":
			cur = bindings[(slices.Index(bindings, cur)+1)%len(bindings)]
		case "clearDirty":
			tr.ClearDirty()
			ref.setDirty(false)
		case "rehashAll":
			tr.RehashAll(cur.e, cur.guaddr)
			ref.rehashAll(cur.e, cur.guaddr)
		case "serialize":
			sameBytes(what, tr.Serialize(), ref.serialize())
		case "appendNode":
			sameBytes(what, tr.AppendNode(nil, l, i), ref.appendNode(nil, l, i))
		case "nodeMAC":
			if got, want := node.MAC(), ref.level[l][i].mac; got != want {
				t.Fatalf("%s: MAC %#x, eager reference %#x", what, got, want)
			}
		case "clone":
			tr = tr.Clone() // carries the probe; never checkpointed, so all dirty
			ref.setDirty(true)
		}

		if tr.RootCounter() != ref.root {
			t.Fatalf("%s: root counter %d, eager reference %d", what, tr.RootCounter(), ref.root)
		}
		for l := range ref.level {
			for i := range ref.level[l] {
				n, want := tr.Node(l, i), &ref.level[l][i]
				same := n.Global() == want.global
				for s := range want.local {
					same = same && n.Local(s) == want.local[s]
				}
				if !same {
					t.Fatalf("%s: counters of node (%d,%d) differ from the eager reference", what, l, i)
				}
			}
		}
		var dirty [][2]int
		tr.DirtyNodes(func(l, i int) { dirty = append(dirty, [2]int{l, i}) })
		if want := ref.dirtyNodes(); !slices.Equal(dirty, want) || tr.DirtyCount() != len(want) {
			t.Fatalf("%s: dirty nodes %v (count %d), eager reference %v", what, dirty, tr.DirtyCount(), want)
		}
		m := sink.Snapshot()
		got := [3]uint64{m.Counter(trace.CtrTreeNodeVerifies), m.Counter(trace.CtrTreeNodeVerifyFails), m.Counter(trace.CtrTreeNodeRehashes)}
		if want := [3]uint64{ref.verifies, ref.fails, ref.rehashes}; got != want {
			t.Fatalf("%s: node verifies, verify fails, rehashes %v, eager reference %v", what, got, want)
		}
		if observeEvery {
			sameBytes(what, tr.Serialize(), ref.serialize())
		}
		if tr.staleCount > 0 {
			reached.deferred++
		}
	}
	sameBytes("after the script", tr.Serialize(), ref.serialize())
	reached.fails = int(ref.fails)
	return reached
}

// lazySetup decodes the fuzz target's setup byte: the geometry, and
// whether every op ends in an observation.
func lazySetup(setup uint8) (Geometry, bool) {
	return lazyGeometries[int(setup)%len(lazyGeometries)], int(setup)/len(lazyGeometries)%2 == 1
}

// TestTreeLazyMatchesEager: seeded random scripts leave a Tree and the
// eager reference indistinguishable on every geometry, observed after every
// op and observed only where the script says so — and the scripts do reach
// what they are for: overflow on the narrow geometries, failing verifies,
// and MACs that stay deferred from one op to the next.
func TestTreeLazyMatchesEager(t *testing.T) {
	for setup := range uint8(2 * len(lazyGeometries)) {
		geo, observeEvery := lazySetup(setup)
		script := make([]byte, 4*600)
		rand.New(rand.NewSource(int64(setup) + 1)).Read(script)
		reached := lazyVsEager(t, geo, observeEvery, script)
		if (geo.LocalBits != 0) != (reached.overflows > 0) || reached.fails == 0 || observeEvery != (reached.deferred == 0) {
			t.Fatalf("%v, observed after every op %v: the script reached %+v", geo, observeEvery, reached)
		}
	}
}

// FuzzTreeLazyVsEager is TestTreeLazyMatchesEager with the fuzzer choosing
// the setup and the script.
func FuzzTreeLazyVsEager(f *testing.F) {
	f.Fuzz(func(t *testing.T, setup uint8, script []byte) {
		geo, observeEvery := lazySetup(setup)
		lazyVsEager(t, geo, observeEvery, script[:min(len(script), 4*256)])
	})
}

// TestTamperAfterVerify: every writer outside the Update family, at every
// level of a path, in every state the node can be in — never checked,
// verified, MAC deferred, both — is noticed by the next VerifyPath exactly
// as the eager reference notices it: ErrIntegrity naming the same node, the
// write neither trusted past (a verified bit surviving it) nor laundered (a
// deferred MAC computed over it), the serialized bytes still the eager
// tree's; and undoing the write makes the path pass again. Verifying under
// another key or address is the same table's last two rows: nothing is
// written, but every verification was a statement about the old binding.
func TestTamperAfterVerify(t *testing.T) {
	geo := smallGeo()
	const line = 13
	e, other := testEngine(), secondEngine()
	// A mutator writes the level-l node over line (or, with root set, the
	// root counter) on both trees and returns its undo; verifyAs, when set,
	// is instead the binding the next VerifyPath runs under.
	type mutator struct {
		name     string
		root     bool
		verifyAs *binding
		do       func(tr *Tree, ref *eagerTree, l, i int) (undo func())
	}
	flipBytes := func(at func(b []byte) int) func(tr *Tree, ref *eagerTree, l, i int) func() {
		return func(tr *Tree, ref *eagerTree, l, i int) func() {
			good := tr.AppendNode(nil, l, i)
			bad := bytes.Clone(good)
			bad[at(bad)] ^= 0x04
			set := func(b []byte) {
				if err := tr.SetNodeFromBytes(l, i, b); err != nil {
					t.Fatal(err)
				}
				ref.setNodeFromBytes(l, i, b)
			}
			set(bad)
			return func() { set(good) }
		}
	}
	mutators := []mutator{
		{name: "SetGlobal", do: func(tr *Tree, ref *eagerTree, l, i int) func() {
			n := tr.Node(l, i)
			flip := func() { n.SetGlobal(n.Global() ^ 1); ref.level[l][i].global ^= 1 }
			flip()
			return flip
		}},
		{name: "SetLocal", do: func(tr *Tree, ref *eagerTree, l, i int) func() {
			_, slot := ref.path(line)
			n, s := tr.Node(l, i), slot[l]
			flip := func() { n.SetLocal(s, n.Local(s)^1); ref.level[l][i].local[s] ^= 1 }
			flip()
			return flip
		}},
		{name: "SetMAC", do: func(tr *Tree, ref *eagerTree, l, i int) func() {
			n := tr.Node(l, i)
			flip := func() { n.SetMAC(n.MAC() ^ 1<<40); ref.level[l][i].mac ^= 1 << 40 }
			flip()
			return flip
		}},
		{name: "SetNodeFromBytes, a counter byte", do: flipBytes(func([]byte) int { return 9 })},
		{name: "SetNodeFromBytes, a MAC byte", do: flipBytes(func(b []byte) int { return len(b) - 1 })},
		{name: "SetRootCounter", root: true, do: func(tr *Tree, ref *eagerTree, _, _ int) func() {
			flip := func() { tr.SetRootCounter(tr.RootCounter() ^ 2); ref.root ^= 2 }
			flip()
			return flip
		}},
		{name: "bind to another engine", root: true, verifyAs: &binding{other, guaddr}},
		{name: "bind to another address", root: true, verifyAs: &binding{e, guaddr + 64}},
	}
	states := []struct {
		name             string
		verified, staled bool
	}{{"neither", false, false}, {"verified", true, false}, {"stale", false, true}, {"both", true, true}}

	for _, m := range mutators {
		for l := 0; l < geo.Levels(); l++ {
			if m.root && l > 0 {
				continue // not a write to one node: one row, not one per level
			}
			for _, st := range states {
				t.Run(fmt.Sprintf("%s/level%d/%s", m.name, l, st.name), func(t *testing.T) {
					tr, ref := mustNew(geo, e, guaddr), newEager(geo, e, guaddr)
					i := line / tr.lay.Level[l].Span
					if st.verified {
						if err := tr.VerifyPath(e, guaddr, line); err != nil || ref.verifyPath(e, guaddr, line) != nil {
							t.Fatal(err)
						}
					}
					if st.staled {
						tr.Update(e, guaddr, line)
						ref.update(e, guaddr, line)
					}
					if verified, stale := bit(tr.verified, tr.lay.Level[l].Base+i), bit(tr.stale, tr.lay.Level[l].Base+i); verified != st.verified || stale != st.staled {
						t.Fatalf("node prepared verified=%v stale=%v", verified, stale)
					}
					as, undo := binding{e, guaddr}, func() {}
					if m.verifyAs != nil {
						as = *m.verifyAs
					} else {
						undo = m.do(tr, ref, l, i)
					}
					err, want := tr.VerifyPath(as.e, as.guaddr, line), ref.verifyPath(as.e, as.guaddr, line)
					if !errors.Is(err, ErrIntegrity) || want == nil || err.Error() != want.Error() {
						t.Fatalf("VerifyPath after the write: %v, eager reference %v", err, want)
					}
					if !bytes.Equal(tr.Serialize(), ref.serialize()) {
						t.Fatal("serialized bytes differ from the eager reference after the failed verify")
					}
					undo()
					if err := tr.VerifyPath(e, guaddr, line); err != nil || ref.verifyPath(e, guaddr, line) != nil {
						t.Fatalf("VerifyPath after the undo: %v", err)
					}
					if !bytes.Equal(tr.Serialize(), ref.serialize()) {
						t.Fatal("serialized bytes differ from the eager reference after the undo")
					}
				})
			}
		}
	}
}

// TestVerifyAllWarmsEveryPath: the install sequence — Deserialize, the
// unsealed root counter, VerifyAll — leaves every node verified, and a warm
// VerifyPath really computes no MAC: with a stored MAC corrupted behind the
// tree's back (a plain store from this test, which no modelled writer can
// make) it still passes, counting its L verifications. A VerifyAll that
// fails verifies nothing, and neither does one under the wrong address.
func TestVerifyAllWarmsEveryPath(t *testing.T) {
	e := testEngine()
	src := mustNew(smallGeo(), e, guaddr)
	for line := range src.lay.Lines {
		src.Update(e, guaddr, line)
	}
	install := func() *Tree {
		tr, err := Deserialize(src.geo, src.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		tr.SetRootCounter(src.RootCounter())
		return tr
	}
	verified := func(tr *Tree) (n int) {
		for _, w := range tr.verified {
			n += bits.OnesCount64(w)
		}
		return n
	}

	tr := install()
	if err := tr.VerifyAll(e, guaddr); err != nil || verified(tr) != tr.lay.Nodes {
		t.Fatalf("VerifyAll: %v, %d of %d nodes verified", err, verified(tr), tr.lay.Nodes)
	}
	sink := trace.NewSink()
	tr.SetTrace(sink.Probe("warm"))
	for n := range tr.mac {
		tr.mac[n] ^= 1
	}
	for line := range tr.lay.Lines {
		if err := tr.VerifyPath(e, guaddr, line); err != nil {
			t.Fatalf("warm VerifyPath(%d) compared a MAC: %v", line, err)
		}
	}
	if got, want := sink.Snapshot().Counter(trace.CtrTreeNodeVerifies), uint64(tr.lay.Lines*len(tr.lay.Level)); got != want {
		t.Fatalf("warm path checks counted %d node verifications, want %d", got, want)
	}

	for _, tc := range []struct {
		name   string
		tamper func(tr *Tree)
		guaddr uint64
	}{
		{"a flipped leaf MAC", func(tr *Tree) { n := tr.Node(2, 5); n.SetMAC(n.MAC() ^ 1) }, guaddr},
		{"the wrong address", func(*Tree) {}, guaddr + 1},
	} {
		tr := install()
		tc.tamper(tr)
		if err := tr.VerifyAll(e, tc.guaddr); !errors.Is(err, ErrIntegrity) || verified(tr) != 0 {
			t.Fatalf("VerifyAll with %s: %v, %d nodes verified", tc.name, err, verified(tr))
		}
	}
}
