package tree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mmt/internal/crypt"
	"mmt/internal/trace"
)

// smallGeo is a tiny tree for fast exhaustive tests: 2*3*4 = 24 lines.
func smallGeo() Geometry { return Geometry{Arities: []int{2, 3, 4}} }

func testEngine() *crypt.Engine { return crypt.NewEngine(crypt.KeyFromBytes([]byte("tree-test"))) }

const guaddr = 0xABCD0000

// mustNew builds a tree or panics; test geometries are valid by
// construction.
func mustNew(geo Geometry, e *crypt.Engine, guaddr uint64) *Tree {
	tr, err := New(geo, e, guaddr)
	if err != nil {
		panic(err)
	}
	return tr
}

func TestNewTreeVerifies(t *testing.T) {
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	if err := tr.VerifyAll(e, guaddr); err != nil {
		t.Fatalf("fresh tree does not verify: %v", err)
	}
	if tr.RootCounter() != 0 {
		t.Fatalf("fresh root counter = %d", tr.RootCounter())
	}
	if tr.LeafCounter(0) != 0 {
		t.Fatalf("fresh leaf counter = %d", tr.LeafCounter(0))
	}
}

func TestUpdateAdvancesCounters(t *testing.T) {
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	res := tr.Update(e, guaddr, 5)
	if res.LeafCounter != 1 {
		t.Fatalf("leaf counter after one write = %d, want 1", res.LeafCounter)
	}
	if tr.RootCounter() != 1 {
		t.Fatalf("root counter = %d, want 1", tr.RootCounter())
	}
	if tr.LeafCounter(5) != 1 || tr.LeafCounter(6) != 0 {
		t.Fatal("wrong leaf counters after update")
	}
	if res.Overflowed || len(res.ReencryptLines) != 0 {
		t.Fatal("unexpected overflow on first write")
	}
	if res.NodesTouched != 3 {
		t.Fatalf("NodesTouched = %d, want 3 (one per level)", res.NodesTouched)
	}
}

func TestUpdateKeepsTreeVerified(t *testing.T) {
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	for i := 0; i < 100; i++ {
		line := (i * 7) % tr.Geometry().Lines()
		tr.Update(e, guaddr, line)
		if err := tr.VerifyAll(e, guaddr); err != nil {
			t.Fatalf("tree invalid after update %d (line %d): %v", i, line, err)
		}
	}
}

func TestVerifyPathMatchesVerifyAll(t *testing.T) {
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	tr.Update(e, guaddr, 3)
	for line := 0; line < tr.Geometry().Lines(); line++ {
		if err := tr.VerifyPath(e, guaddr, line); err != nil {
			t.Fatalf("VerifyPath(%d): %v", line, err)
		}
	}
}

func TestTamperCounterDetected(t *testing.T) {
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	tr.Update(e, guaddr, 0)
	n := tr.Node(2, 0) // attacker bumps a leaf counter in the meta-zone
	n.SetLocal(0, n.Local(0)+1)
	if err := tr.VerifyPath(e, guaddr, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered counter not detected: %v", err)
	}
}

func TestTamperGlobalCounterDetected(t *testing.T) {
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	tr.Node(1, 0).SetGlobal(42)
	if err := tr.VerifyPath(e, guaddr, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered global counter not detected: %v", err)
	}
}

// TestTamperMACDetected: VerifyAll on a freshly decoded tree whose blob has
// node MACs flipped names the lowest flat index among them — the node a
// check in flat order meets first, whatever batch of masks it falls in —
// and counts one verification per node up to and including it; a clean
// tree counts one per node.
func TestTamperMACDetected(t *testing.T) {
	e := testEngine()
	src := mustNew(ForLevels(2), e, guaddr) // 17 nodes: batches 0–7, 8–15, 16
	for line := range src.lay.Lines {
		src.Update(e, guaddr, line)
	}
	last := src.lay.Nodes - 1
	for _, flip := range [][]int{{}, {0}, {7}, {8}, {9}, {last}, {13, 10}, {9, last}} {
		t.Run(fmt.Sprint(flip), func(t *testing.T) {
			blob := src.Serialize()
			for _, n := range flip {
				lv := &src.lay.Level[src.lay.levelOf(n)]
				blob[lv.Offset+(n-lv.Base+1)*lv.NodeSize-1] ^= 0x80 // the MAC's last byte
			}
			tr, err := Deserialize(src.geo, blob)
			if err != nil {
				t.Fatal(err)
			}
			tr.SetRootCounter(src.RootCounter())
			sink := trace.NewSink()
			tr.SetTrace(sink.Probe("verify"))
			err = tr.VerifyAll(e, guaddr)
			verifies := sink.Snapshot().Counter(trace.CtrTreeNodeVerifies)
			if len(flip) == 0 {
				if err != nil || verifies != uint64(src.lay.Nodes) {
					t.Fatalf("clean tree: %v, %d verifications, want nil, %d", err, verifies, src.lay.Nodes)
				}
				return
			}
			n := slices.Min(flip)
			l := src.lay.levelOf(n)
			want := fmt.Sprintf("%v: node level %d index %d", ErrIntegrity, l, n-src.lay.Level[l].Base)
			if !errors.Is(err, ErrIntegrity) || err.Error() != want || verifies != uint64(n+1) {
				t.Fatalf("VerifyAll: %v, %d verifications, want %q, %d", err, verifies, want, n+1)
			}
		})
	}
}

func TestReplayedNodeDetected(t *testing.T) {
	// An attacker records a node (counters+MAC) and restores it after a
	// later legitimate update. The restored node is self-consistent but its
	// parent counter has moved on, so the path check must fail.
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	tr.Update(e, guaddr, 0)
	saved := tr.AppendNode(nil, 2, 0) // recorded node bytes (counters+MAC)

	tr.Update(e, guaddr, 0) // legitimate second write

	if err := tr.SetNodeFromBytes(2, 0, saved); err != nil {
		t.Fatal(err)
	}
	if err := tr.VerifyPath(e, guaddr, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("replayed stale node not detected: %v", err)
	}
}

func TestWrongAddressDetected(t *testing.T) {
	// The same tree bytes interpreted at a different global-unique address
	// must not verify (anti-splicing across the integrity forest).
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	if err := tr.VerifyAll(e, guaddr+1); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tree verified at wrong address: %v", err)
	}
}

func TestWrongKeyDetected(t *testing.T) {
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	other := crypt.NewEngine(crypt.KeyFromBytes([]byte("other-key")))
	if err := tr.VerifyAll(other, guaddr); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tree verified under wrong key: %v", err)
	}
}

func TestLeafOverflowReencryptsSiblingLines(t *testing.T) {
	e := testEngine()
	geo := Geometry{Arities: []int{2, 4}, LocalBits: 2} // locals wrap at 3
	tr := mustNew(geo, e, guaddr)
	var res UpdateResult
	overflowed := false
	for i := 0; i < 4; i++ {
		res = tr.Update(e, guaddr, 0)
		if res.Overflowed {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatal("no overflow after wrapping local counter")
	}
	// Leaf 0 covers lines 0..3; all but the written line must be re-encrypted.
	want := map[int]bool{1: true, 2: true, 3: true}
	if len(res.ReencryptLines) != len(want) {
		t.Fatalf("ReencryptLines = %v", res.ReencryptLines)
	}
	for _, ln := range res.ReencryptLines {
		if !want[ln] {
			t.Fatalf("unexpected re-encrypt line %d", ln)
		}
	}
	if err := tr.VerifyAll(e, guaddr); err != nil {
		t.Fatalf("tree invalid after overflow: %v", err)
	}
	// Global counter advanced: effective counter continues to grow.
	if got := tr.LeafCounter(0); got != 4 {
		t.Fatalf("leaf counter after overflow = %d, want 4", got)
	}
}

func TestInteriorOverflowRehashesChildren(t *testing.T) {
	e := testEngine()
	geo := Geometry{Arities: []int{2, 2, 2}, LocalBits: 1} // locals wrap at 1
	tr := mustNew(geo, e, guaddr)
	for i := 0; i < 8; i++ {
		tr.Update(e, guaddr, i%geo.Lines())
		if err := tr.VerifyAll(e, guaddr); err != nil {
			t.Fatalf("tree invalid after update %d: %v", i, err)
		}
	}
}

func TestCounterMonotonicProperty(t *testing.T) {
	e := testEngine()
	geo := Geometry{Arities: []int{2, 3, 4}, LocalBits: 3}
	tr := mustNew(geo, e, guaddr)
	f := func(lines []uint8) bool {
		prevRoot := tr.RootCounter()
		for _, l := range lines {
			line := int(l) % geo.Lines()
			before := tr.LeafCounter(line)
			res := tr.Update(e, guaddr, line)
			if res.LeafCounter <= before {
				return false // per-line counter must strictly increase
			}
			if tr.RootCounter() <= prevRoot {
				return false // root counter must strictly increase
			}
			prevRoot = tr.RootCounter()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	for i := 0; i < 10; i++ {
		tr.Update(e, guaddr, i%tr.Geometry().Lines())
	}
	blob := tr.Serialize()
	if len(blob) != tr.lay.NodesSize {
		t.Fatalf("serialized %d bytes, want %d", len(blob), tr.lay.NodesSize)
	}
	back, err := Deserialize(tr.Geometry(), blob)
	if err != nil {
		t.Fatal(err)
	}
	back.SetRootCounter(tr.RootCounter())
	if err := back.VerifyAll(e, guaddr); err != nil {
		t.Fatalf("deserialized tree does not verify: %v", err)
	}
	if back.LeafCounter(0) != tr.LeafCounter(0) {
		t.Fatal("leaf counters differ after round trip")
	}
}

// codecGeos are FuzzTreeCodec's geometries: the paper's 2-level tree
// ({16, 64}: whole words of locals only), and two whose upper levels end
// in a partial word of locals (arities 2 and 3), one with 2-bit locals.
var codecGeos = []Geometry{ForLevels(2), {Arities: []int{2, 3, 96}, LocalBits: 2}, smallGeo()}

// FuzzTreeCodec: Deserialize accepts exactly the byte strings of a
// geometry's NodesSize, and Serialize — and AppendNode, node by node —
// gives each back byte for byte; every other length is refused. An input
// of another length is also tried cycled out to the right one. The
// committed corpus holds all-0xFF blobs of each geometry: a decoder that
// drops a partial word's bytes reads them back as zeros.
func FuzzTreeCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, g uint8, b []byte) {
		geo := codecGeos[int(g)%len(codecGeos)]
		lay, _ := geo.Layout()
		if len(b) != lay.NodesSize {
			if _, err := Deserialize(geo, b); err == nil {
				t.Fatalf("%d bytes accepted, want %d", len(b), lay.NodesSize)
			}
			full := make([]byte, lay.NodesSize)
			for i := 0; len(b) > 0 && i < len(full); i++ {
				full[i] = b[i%len(b)]
			}
			b = full
		}
		tr, err := Deserialize(geo, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Serialize(); !bytes.Equal(got, b) {
			i := 0
			for got[i] == b[i] {
				i++
			}
			t.Fatalf("Serialize(Deserialize(b)) differs from b first at byte %d: %#x, want %#x", i, got[i], b[i])
		}
		var nodes []byte
		for l, lv := range lay.Level {
			for i := range lv.Nodes {
				nodes = tr.AppendNode(nodes, l, i)
			}
		}
		if !bytes.Equal(nodes, b) {
			t.Fatal("AppendNode over every node differs from b")
		}
	})
}

func TestDeserializeRejectsWrongSize(t *testing.T) {
	if _, err := Deserialize(smallGeo(), make([]byte, 10)); err == nil {
		t.Fatal("wrong-size blob accepted")
	}
	if _, err := Deserialize(Geometry{}, nil); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestDeserializedStaleRootRejected(t *testing.T) {
	// Replay of old tree nodes with the current root counter fails: the top
	// node MAC is keyed by the root counter, which has since advanced.
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	stale := tr.Serialize()
	tr.Update(e, guaddr, 0)

	back, err := Deserialize(tr.Geometry(), stale)
	if err != nil {
		t.Fatal(err)
	}
	back.SetRootCounter(tr.RootCounter()) // current (newer) root counter
	if err := back.VerifyAll(e, guaddr); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("stale nodes verified under new root counter: %v", err)
	}
}

func TestSetRootCounterRequiresRehash(t *testing.T) {
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	tr.SetRootCounter(100)
	if err := tr.VerifyAll(e, guaddr); !errors.Is(err, ErrIntegrity) {
		t.Fatal("root counter change without rehash still verifies")
	}
	tr.RehashAll(e, guaddr)
	if err := tr.VerifyAll(e, guaddr); err != nil {
		t.Fatalf("rehash after SetRootCounter: %v", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	e := testEngine()
	tr := mustNew(smallGeo(), e, guaddr)
	cl := tr.Clone()
	tr.Update(e, guaddr, 0)
	if cl.RootCounter() != 0 || cl.LeafCounter(0) != 0 {
		t.Fatal("clone shares state with original")
	}
	if err := cl.VerifyAll(e, guaddr); err != nil {
		t.Fatalf("clone does not verify: %v", err)
	}
}

func TestPaperGeometryEndToEnd(t *testing.T) {
	// A real 3-level (2 MB) tree: build, update a few lines, verify.
	if testing.Short() {
		t.Skip("2MB tree in -short mode")
	}
	e := testEngine()
	tr := mustNew(ForLevels(3), e, guaddr)
	for _, line := range []int{0, 1, 63, 64, 2047, 2048, 32767} {
		res := tr.Update(e, guaddr, line)
		if res.LeafCounter != 1 {
			t.Fatalf("line %d leaf counter = %d", line, res.LeafCounter)
		}
		if err := tr.VerifyPath(e, guaddr, line); err != nil {
			t.Fatal(err)
		}
	}
	if tr.RootCounter() != 7 {
		t.Fatalf("root counter = %d, want 7", tr.RootCounter())
	}
}

// benchVerifyPath measures VerifyPath over a cycling line set for an
// arbitrary geometry: warm, every path already verified, so a check is the
// leaf's bit; or cold, every verification forgotten before each check, so
// it is L node MACs against warm mask caches — what every check cost before
// the verified bit. Heights 5 and 7 use narrow interior arities: the paper
// geometry at those heights would cover gigabytes of data, and the
// benchmark measures path length, not fan-out.
func benchVerifyPath(b *testing.B, geo Geometry, cold bool) {
	b.Helper()
	e := testEngine()
	tr := mustNew(geo, e, guaddr)
	if err := tr.VerifyAll(e, guaddr); err != nil {
		b.Fatal(err)
	}
	lines := tr.Geometry().Lines()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			clear(tr.verified)
		}
		if err := tr.VerifyPath(e, guaddr, i%lines); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVerifyPathHeights(b *testing.B, cold bool) {
	b.Run("h3", func(b *testing.B) { benchVerifyPath(b, ForLevels(3), cold) })
	b.Run("h5", func(b *testing.B) { benchVerifyPath(b, Geometry{Arities: []int{4, 4, 4, 4, 64}}, cold) })
	b.Run("h7", func(b *testing.B) { benchVerifyPath(b, Geometry{Arities: []int{2, 2, 2, 2, 2, 2, 64}}, cold) })
}

func BenchmarkVerifyPathWarm(b *testing.B) { benchVerifyPathHeights(b, false) }
func BenchmarkVerifyPathCold(b *testing.B) { benchVerifyPathHeights(b, true) }

// BenchmarkUpdateRunDeferred measures the write path's tree step on the
// 3-level tree, a single line and a whole 64-line leaf at a time: counters
// move, the path is marked, no MAC is computed. (A local counter wraps every
// 65 536 bumps; the run then goes through Update, as in the engine.)
func BenchmarkUpdateRunDeferred(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("run%d", n), func(b *testing.B) {
			e := testEngine()
			tr := mustNew(ForLevels(3), e, guaddr)
			lines := tr.Geometry().Lines()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if line := i * n % lines; !tr.UpdateRun(e, guaddr, line, n) {
					tr.Update(e, guaddr, line)
				}
			}
		})
	}
}

// BenchmarkFlushAll256 is the checkpoint's share of the deferral, in the
// persist workload's shape: 256 single-line updates at random lines of the
// 3-level tree (untimed), then one flushAll of the nodes they left stale —
// some 220, since the upper levels are shared.
func BenchmarkFlushAll256(b *testing.B) {
	e := testEngine()
	tr := mustNew(ForLevels(3), e, guaddr)
	rng := rand.New(rand.NewSource(1))
	nodes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for range 256 {
			tr.Update(e, guaddr, rng.Intn(tr.lay.Lines))
		}
		nodes += tr.staleCount
		b.StartTimer()
		tr.flushAll()
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}

// BenchmarkCodec times the receiver's and the sender's whole-tree passes on
// the 3-level tree (75 KB serialized), every counter written once: Serialize,
// Deserialize, and VerifyAll on a freshly decoded tree (the decode untimed).
func BenchmarkCodec(b *testing.B) {
	e := testEngine()
	src := mustNew(ForLevels(3), e, guaddr)
	for line := range src.lay.Lines {
		src.Update(e, guaddr, line)
	}
	blob := src.Serialize()
	decode := func(b *testing.B) *Tree {
		tr, err := Deserialize(src.geo, blob)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	b.Run("Serialize", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			src.Serialize()
		}
	})
	b.Run("Deserialize", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			decode(b)
		}
	})
	b.Run("VerifyAll", func(b *testing.B) {
		for range b.N {
			b.StopTimer()
			tr := decode(b)
			tr.SetRootCounter(src.RootCounter())
			b.StartTimer()
			if err := tr.VerifyAll(e, guaddr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestUpdateRunMatchesUpdates pins UpdateRun to the procedure it batches:
// over random runs, a twin tree advanced by n Updates in line order ends
// with the same serialized nodes, root counter, leaf counters and dirty
// set; and where any of those Updates would overflow — the narrow locals
// make that common — UpdateRun reports false and changes nothing, leaving
// the overflow procedure to Update.
func TestUpdateRunMatchesUpdates(t *testing.T) {
	e := testEngine()
	for _, geo := range []Geometry{
		{Arities: []int{2, 3, 4}},
		{Arities: []int{2, 3, 4}, LocalBits: 3},
		{Arities: []int{6}, LocalBits: 2},
	} {
		run, ref := mustNew(geo, e, guaddr), mustNew(geo, e, guaddr)
		run.ClearDirty()
		ref.ClearDirty()
		leaf := geo.Arities[geo.Levels()-1]
		rng := rand.New(rand.NewSource(int64(geo.LocalBits) + 1))
		batched, refused := 0, 0
		for i := 0; i < 400; i++ {
			line := rng.Intn(geo.Lines())
			n := 1 + rng.Intn(leaf-line%leaf)
			before, beforeRoot := run.Serialize(), run.RootCounter()
			fits := run.UpdateRun(e, guaddr, line, n)
			if fits {
				batched++
			} else {
				refused++
				if !bytes.Equal(run.Serialize(), before) || run.RootCounter() != beforeRoot {
					t.Fatalf("%v: refused UpdateRun(%d, %d) changed the tree", geo, line, n)
				}
				for k := 0; k < n; k++ {
					run.Update(e, guaddr, line+k)
				}
			}
			overflowed := false
			for k := 0; k < n; k++ {
				res := ref.Update(e, guaddr, line+k)
				overflowed = overflowed || res.Overflowed
				if fits && res.LeafCounter != run.LeafCounter(line+k) {
					t.Fatalf("%v: line %d counter %d after the run, Update returned %d", geo, line+k, run.LeafCounter(line+k), res.LeafCounter)
				}
			}
			if fits == overflowed {
				t.Fatalf("%v: UpdateRun(%d, %d) = %v, but line by line overflowed = %v", geo, line, n, fits, overflowed)
			}
			if !bytes.Equal(run.Serialize(), ref.Serialize()) || run.RootCounter() != ref.RootCounter() {
				t.Fatalf("%v: trees differ after run of %d lines at %d", geo, n, line)
			}
			var a, b [][2]int
			run.DirtyNodes(func(l, i int) { a = append(a, [2]int{l, i}) })
			ref.DirtyNodes(func(l, i int) { b = append(b, [2]int{l, i}) })
			if !slices.Equal(a, b) {
				t.Fatalf("%v: dirty nodes %v, line by line %v", geo, a, b)
			}
			if err := run.VerifyAll(e, guaddr); err != nil {
				t.Fatalf("%v: tree invalid after run of %d lines at %d: %v", geo, n, line, err)
			}
		}
		if batched == 0 || (geo.LocalBits != 0 && refused == 0) {
			t.Fatalf("%v: %d runs batched, %d refused: the test did not reach both outcomes", geo, batched, refused)
		}
	}
}

// TestMarkAllDirtyCounts: after MarkAllDirty the count, the enumeration and
// the node total agree whatever was dirty before — a fresh tree (New leaves
// every node dirty), a clean one and a partly dirty one — on a node count
// that is not a multiple of 64 and one that fills a word exactly. DirtyNodes
// must also name each node once, in ascending (level, index) order.
func TestMarkAllDirtyCounts(t *testing.T) {
	e := testEngine()
	for _, geo := range []Geometry{smallGeo(), ForLevels(3), {Arities: []int{63, 2}}} { // 9, 529 and 1+63 = 64 nodes
		total := geo.layout().Nodes
		for _, prep := range []struct {
			name string
			do   func(tr *Tree)
		}{
			{"fresh", func(*Tree) {}},
			{"clean", func(tr *Tree) { tr.ClearDirty() }},
			{"partly dirty", func(tr *Tree) { tr.ClearDirty(); tr.Update(e, guaddr, 0) }},
		} {
			tr := mustNew(geo, e, guaddr)
			prep.do(tr)
			tr.MarkAllDirty()
			var seen [][2]int
			tr.DirtyNodes(func(l, i int) { seen = append(seen, [2]int{l, i}) })
			if tr.DirtyCount() != total || len(seen) != total {
				t.Errorf("%v %s: DirtyCount %d, enumerated %d, want %d", geo.Arities, prep.name, tr.DirtyCount(), len(seen), total)
			}
			for k := 1; k < len(seen); k++ {
				if slices.Compare(seen[k-1][:], seen[k][:]) >= 0 {
					t.Errorf("%v %s: DirtyNodes not strictly ascending at %v, %v", geo.Arities, prep.name, seen[k-1], seen[k])
				}
			}
			tr.ClearDirty()
			if tr.DirtyCount() != 0 {
				t.Errorf("%v %s: DirtyCount %d after ClearDirty", geo.Arities, prep.name, tr.DirtyCount())
			}
		}
	}
}

// TestLeafCountersMatchLeafCounter: the stepped pass over any span — inside
// a leaf, across leaves, the whole tree, with locals that have overflowed
// into the globals — writes LeafCounter of every line and reports the first
// entry that was not already there: len(dst) on a second pass, and the
// first line written to after a few more updates.
func TestLeafCountersMatchLeafCounter(t *testing.T) {
	e := testEngine()
	for _, geo := range []Geometry{
		{Arities: []int{2, 3, 4}},
		{Arities: []int{3, 5}, LocalBits: 2},
		{Arities: []int{2, 130}},
	} {
		tr := mustNew(geo, e, guaddr)
		rng := rand.New(rand.NewSource(int64(geo.Lines())))
		for i := 0; i < 300; i++ {
			tr.Update(e, guaddr, rng.Intn(geo.Lines()))
		}
		if got := tr.LeafCounters(0, nil); got != 0 {
			t.Fatalf("%v: LeafCounters of no lines = %d", geo, got)
		}
		for i := 0; i < 200; i++ {
			line := rng.Intn(geo.Lines())
			dst := make([]uint64, 1+rng.Intn(geo.Lines()-line))
			for k := range dst {
				dst[k] = tr.LeafCounter(line+k) ^ 1 // every entry stale
			}
			if got := tr.LeafCounters(line, dst); got != 0 {
				t.Fatalf("%v: first changed entry of an all-stale span = %d", geo, got)
			}
			for k, c := range dst {
				if c != tr.LeafCounter(line+k) {
					t.Fatalf("%v: LeafCounters(%d)[%d] = %d, LeafCounter %d", geo, line, k, c, tr.LeafCounter(line+k))
				}
			}
			if got := tr.LeafCounters(line, dst); got != len(dst) {
				t.Fatalf("%v: second pass over [%d,+%d) reports entry %d changed", geo, line, len(dst), got)
			}
			lowest := len(dst)
			for range 3 {
				k := rng.Intn(len(dst))
				tr.Update(e, guaddr, line+k)
				lowest = min(lowest, k)
			}
			first := 0
			for first < len(dst) && dst[first] == tr.LeafCounter(line+first) {
				first++
			}
			if first > lowest { // an overflow may move a sibling below it, never spare the line itself
				t.Fatalf("%v: line %d was updated but kept its counter", geo, line+lowest)
			}
			if got := tr.LeafCounters(line, dst); got != first {
				t.Fatalf("%v: after updates under [%d,+%d) the first changed entry is %d, want %d", geo, line, len(dst), got, first)
			}
		}
	}
}
