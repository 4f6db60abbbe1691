package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// The tamper tables below work on one leaf run of spanTamperGeo, lines
// [8,12), and tamper with the nodes over line 9; every node over line 9 is
// over line 8 too, so a range access from line 8 fails in its first run.
const (
	tamperFirst, tamperLines = 8, 8 // the span accessed: the run [8,12) and the next
	tamperAt                 = 9
)

// wantTreeFail is the error a path check from a leaf under the level-l node
// returns when that node's MAC (counter false) or one of its counters on the
// path (counter true) was rewritten: a leaf-to-root walk meets a bad MAC at
// the node itself, and a bad counter first one level below, at the child
// whose MAC is keyed by it — the leaf has no child and fails itself.
func wantTreeFail(c *Controller, l int, counter bool) string {
	if counter && l < len(c.lay.Level)-1 {
		l++
	}
	return fmt.Sprintf("%v: node level %d index %d", ErrIntegrity, l, tamperAt/c.lay.Level[l].Span)
}

// TestTamperAfterVerify: a write to the tree arena from outside the Update
// family — each NodeRef setter, SetNodeFromBytes, SetRootCounter — at every
// level, whatever state the engine had left the node in — never checked
// (after Enable), verified (after a read), verified with its MAC deferred
// (after a write; the engine verifies before it updates, so it never leaves
// a node deferred and unverified) — fails the next ReadRange and WriteRange
// over the node with ErrIntegrity naming the node a full re-check names,
// nothing of the run is read or written, and undoing the write makes both
// pass. internal/tree's test of the same name covers the fourth state and
// holds the error text to the eager reference.
func TestTamperAfterVerify(t *testing.T) {
	type mutator struct {
		name    string
		counter bool // rewrites a counter on line tamperAt's path, not a MAC
		root    bool
		do      func(c *Controller, l, i int) (undo func())
	}
	flipBytes := func(at func(b []byte) int) func(c *Controller, l, i int) func() {
		return func(c *Controller, l, i int) func() {
			good := c.Tree(0).AppendNode(nil, l, i)
			bad := bytes.Clone(good)
			bad[at(bad)] ^= 0x20
			if err := c.Tree(0).SetNodeFromBytes(l, i, bad); err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := c.Tree(0).SetNodeFromBytes(l, i, good); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	mutators := []mutator{
		{name: "SetGlobal", counter: true, do: func(c *Controller, l, i int) func() {
			n := c.Tree(0).Node(l, i)
			n.SetGlobal(n.Global() + 1)
			return func() { n.SetGlobal(n.Global() - 1) }
		}},
		{name: "SetLocal", counter: true, do: func(c *Controller, l, i int) func() {
			lv := c.lay.Level[l]
			n, s := c.Tree(0).Node(l, i), tamperAt/(lv.Span/lv.Arity)%lv.Arity
			n.SetLocal(s, n.Local(s)^1)
			return func() { n.SetLocal(s, n.Local(s)^1) }
		}},
		{name: "SetMAC", do: func(c *Controller, l, i int) func() {
			n := c.Tree(0).Node(l, i)
			n.SetMAC(n.MAC() ^ 1)
			return func() { n.SetMAC(n.MAC() ^ 1) }
		}},
		{name: "SetNodeFromBytes, a counter byte", counter: true, do: flipBytes(func([]byte) int { return 0 })},
		{name: "SetNodeFromBytes, a MAC byte", do: flipBytes(func(b []byte) int { return len(b) - 3 })},
		{name: "SetRootCounter", root: true, do: func(c *Controller, _, _ int) func() {
			tr := c.Tree(0)
			tr.SetRootCounter(tr.RootCounter() + 1)
			return func() { tr.SetRootCounter(tr.RootCounter() - 1) }
		}},
	}
	span := make([]byte, tamperLines*LineSize)
	states := []struct {
		name string
		prep func(c *Controller) error
	}{
		{"neither", func(*Controller) error { return nil }},
		{"verified", func(c *Controller) error { return c.ReadRange(0, tamperFirst, span) }},
		{"both", func(c *Controller) error { return c.WriteRange(0, tamperAt, span[:LineSize]) }},
	}
	for _, m := range mutators {
		for l := 0; l < spanTamperGeo.Levels(); l++ {
			if m.root && l > 0 {
				continue
			}
			for _, st := range states {
				for _, write := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/level%d/%s/write=%v", m.name, l, st.name, write), func(t *testing.T) {
						w := newTwin(t, twinSetup{geo: spanTamperGeo})
						c := w.c
						if err := st.prep(c); err != nil {
							t.Fatal(err)
						}
						access := func() error {
							if write {
								return c.WriteRange(0, tamperFirst, span)
							}
							return c.ReadRange(0, tamperFirst, span)
						}
						undo := m.do(c, l, tamperAt/c.lay.Level[l].Span)
						want := wantTreeFail(c, l, m.counter)
						if m.root {
							want = wantTreeFail(c, 0, false)
						}
						before, events := w.stored(t, 0), len(w.sink.SecEvents())
						for i := range span {
							span[i] = 0xEE
						}
						if err := access(); !errors.Is(err, ErrIntegrity) || err.Error() != want {
							t.Fatalf("access after the write: %v, want %q", err, want)
						}
						if after := w.stored(t, 0); !reflect.DeepEqual(before, after) {
							t.Fatal("the failing run changed the region's stored state")
						}
						if !bytes.Equal(span, bytes.Repeat([]byte{0xEE}, len(span))) {
							t.Fatal("the failing read delivered plaintext")
						}
						if ev := w.sink.SecEvents(); len(ev) != events+1 || ev[events].Kind != trace.EvIntegrityFail {
							t.Fatalf("ledger after the failing access: %+v", ev[events:])
						}
						undo()
						if err := access(); err != nil {
							t.Fatalf("access after the undo: %v", err)
						}
					})
				}
			}
		}
	}
}

// TestMetaZoneTamperAfterVerify is the physical attack on a warm region:
// every line has been read, so every node is verified; the controller's
// metadata is flushed to the meta-zone; the attacker rewrites one byte of
// one node there — a counter or the MAC, at each level — and the
// controller re-reads its metadata. The copy it now holds was never
// verified, whatever the copy it replaced had been: the first access under
// the node fails closed, and with the byte restored it passes.
func TestMetaZoneTamperAfterVerify(t *testing.T) {
	for l := 0; l < spanTamperGeo.Levels(); l++ {
		for _, counter := range []bool{true, false} {
			t.Run(fmt.Sprintf("level%d/counter=%v", l, counter), func(t *testing.T) {
				w := newTwin(t, twinSetup{geo: spanTamperGeo})
				c := w.c
				all := make([]byte, c.lay.DataSize)
				if err := errors.Join(c.WriteRange(0, tamperAt, all[:LineSize]), c.ReadRange(0, 0, all)); err != nil {
					t.Fatal(err)
				}
				c.FlushMeta(0)
				lv := c.lay.Level[l]
				at := lv.Offset + tamperAt/lv.Span*lv.NodeSize // the node's global counter
				if !counter {
					at += lv.NodeSize - 1 // its MAC's last byte
				}
				meta := c.Memory().MetaRegion(0)
				meta[at] ^= 0x01
				if err := c.LoadMeta(0); err != nil {
					t.Fatal(err)
				}
				line := make([]byte, LineSize)
				if err, want := c.ReadInto(0, tamperAt, line), wantTreeFail(c, l, counter); !errors.Is(err, ErrIntegrity) || err.Error() != want {
					t.Fatalf("first read after the rewrite: %v, want %q", err, want)
				}
				if err := c.Write(0, tamperAt, line); !errors.Is(err, ErrIntegrity) {
					t.Fatalf("first write after the rewrite: %v", err)
				}
				meta[at] ^= 0x01
				if err := c.LoadMeta(0); err != nil {
					t.Fatal(err)
				}
				if err := c.ReadRange(0, 0, all); err != nil {
					t.Fatalf("read after the byte was restored: %v", err)
				}
			})
		}
	}
}

// TestOverflowSiblingTamper: a sibling line whose ciphertext changed after
// its path was verified cannot be re-encrypted when a write overflows its
// leaf's local counter. The write fails closed with ErrIntegrity and
// records an integrity failure in the ledger.
func TestOverflowSiblingTamper(t *testing.T) {
	geo := tree.Geometry{Arities: []int{2, 4}, LocalBits: 2} // four lines a leaf; the fourth write overflows
	c, err := NewRegions(1, geo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewSink()
	c.SetTrace(sink.Probe("overflow"))
	fill(c, 0, 3)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	c.Memory().RegionData(0)[LineSize] ^= 1 // line 1, line 0's sibling
	buf := make([]byte, LineSize)
	for range 4 {
		if err = c.Write(0, 0, buf); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrIntegrity) || !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("writes through the overflow: %v, want the sibling unrecoverable", err)
	}
	if ev := sink.SecEvents(); len(ev) != 1 || ev[0].Kind != trace.EvIntegrityFail {
		t.Fatalf("ledger %+v, want one integrity failure", ev)
	}
}
