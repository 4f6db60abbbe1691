package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mmt/internal/crypt"
	"mmt/internal/mem"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// twin is one of two identically built, traced, single-region controllers
// a test drives side by side: one through the range kernels, one line by
// line.
type twin struct {
	c    *Controller
	sink *trace.Sink
}

func newTwin(t testing.TB, geo tree.Geometry) twin {
	t.Helper()
	m := mem.New(mem.Config{Size: geo.DataSize(), RegionSize: geo.DataSize(), MetaPerRegion: geo.MetaSize()})
	c, err := New(m, geo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	w := twin{c: c, sink: trace.NewSink()}
	c.SetTrace(w.sink.Probe("twin"))
	fill(c, 0, 3)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	c.ClearRegionDirty(0)
	return w
}

// readLines and writeLines are the line-by-line reference: the loop every
// caller ran before the range kernels existed.
func (w twin) readLines(line int, dst []byte) error {
	for ; len(dst) > 0; line, dst = line+1, dst[LineSize:] {
		if err := w.c.ReadInto(0, line, dst[:LineSize]); err != nil {
			return err
		}
	}
	return nil
}

func (w twin) writeLines(line int, src []byte) error {
	for ; len(src) > 0; line, src = line+1, src[LineSize:] {
		if err := w.c.Write(0, line, src[:LineSize]); err != nil {
			return err
		}
	}
	return nil
}

// observed is everything a caller can see of a controller between two
// calls, short of its stored state: activity counters, the simulated
// clock, every trace accumulator and the security ledger. The two
// functional-work counters are left out — doing that work once per run is
// the point of the range kernels (DESIGN.md §17).
type observed struct {
	stats   Stats
	now     sim.Time
	mode    Mode
	metrics trace.ProcMetrics
	events  []trace.SecEvent
}

func (w twin) observe() observed {
	m := w.sink.Snapshot().Procs[0]
	m.Counters[trace.CtrTreeNodeVerifies] = 0
	m.Counters[trace.CtrTreeNodeRehashes] = 0
	return observed{w.c.Stats(), w.c.Clock().Now(), w.c.Mode(0), m, w.sink.SecEvents()}
}

// stored is a region's complete stored state: what Export ships plus the
// two dirty sets the checkpoint stream reads.
type stored struct {
	tree, data  []byte
	macs        []uint64
	rootCounter uint64
	dirtyLines  []int
	dirtyNodes  [][2]int
}

func (w twin) stored(t testing.TB) stored {
	t.Helper()
	tb, data, macs, root, _, err := w.c.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	s := stored{tree: tb, data: bytes.Clone(data), macs: slices.Clone(macs), rootCounter: root}
	w.c.DirtyLines(0, func(line int) { s.dirtyLines = append(s.dirtyLines, line) })
	w.c.Tree(0).DirtyNodes(func(l, i int) { s.dirtyNodes = append(s.dirtyNodes, [2]int{l, i}) })
	return s
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// tamper flips one bit of region 0's untrusted state under line: kind 0
// its line MAC, kind 1 its ciphertext, kind 2+l the MAC of the level-l
// node covering it. Flipping twice restores the state.
func tamper(c *Controller, kind, line int) {
	switch kind {
	case 0:
		c.regions[0].lineMACs[line] ^= 1
	case 1:
		c.Memory().RegionData(0)[line*LineSize+9] ^= 0x40
	default:
		n := c.Tree(0).Node(kind-2, line/c.lay.Level[kind-2].Span)
		n.SetMAC(n.MAC() ^ 1)
	}
}

// rangeVsLine runs one op script on twin controllers — every span through
// ReadRange/WriteRange on one, line by line on the other — and fails on
// the first observable difference: results and everything in observed
// after every op, everything in stored at the end. It returns how many
// lines the overflow procedure re-encrypted.
//
// An op is six script bytes: kind, start line (2), span length (2) and a
// seed. Spans reach over up to five leaf runs. Besides reads, writes and
// clearing the dirty sets there is a tamper op: flip one bit somewhere
// under the span on both twins, read the span — and, when the bit is in a
// node MAC, which a write checks too, write it — then flip the bit back.
// A failing access stops at the tampered run's first line having changed
// nothing of that run, so the region is whole again afterwards. (Not so
// where an earlier run of the write overflows an interior counter: that
// re-MACs every child of the node, the flipped MAC included, and the flip
// back would be the tamper. The narrow-locals geometry skips the write.)
func rangeVsLine(t testing.TB, geo tree.Geometry, script []byte) uint64 {
	t.Helper()
	rng, ref := newTwin(t, geo), newTwin(t, geo)
	lines, leaf := geo.Lines(), geo.Arities[geo.Levels()-1]
	for op := 0; len(script) >= 6; op, script = op+1, script[6:] {
		line := int(binary.LittleEndian.Uint16(script[1:])) % lines
		n := 1 + int(binary.LittleEndian.Uint16(script[3:]))%min(lines-line, 4*leaf+1)
		kind, seed := script[0]%8, script[5]
		what := fmt.Sprintf("op %d (kind %d, lines [%d,+%d), seed %d)", op, kind, line, n, seed)
		a, b := make([]byte, n*LineSize), make([]byte, n*LineSize)
		read := func() (error, error) {
			errA, errB := rng.c.ReadRange(0, line, a), ref.readLines(line, b)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: plaintext differs", what)
			}
			return errA, errB
		}
		write := func() (error, error) {
			for i := range a {
				a[i] = seed + byte(i*7)
			}
			return rng.c.WriteRange(0, line, a), ref.writeLines(line, a)
		}
		var errA, errB error
		switch kind {
		case 7:
			rng.c.ClearRegionDirty(0)
			ref.c.ClearRegionDirty(0)
		case 4, 5, 6:
			errA, errB = read()
		case 3:
			bit, at := int(seed)%(2+geo.Levels()), line+int(seed>>3)%n
			tamper(rng.c, bit, at)
			tamper(ref.c, bit, at)
			errA, errB = read()
			if !errors.Is(errA, ErrIntegrity) {
				t.Fatalf("%s: tamper kind %d at line %d went unnoticed by the read: %v", what, bit, at, errA)
			}
			if bit >= 2 && geo.LocalBits == 0 && sameErr(errA, errB) {
				errA, errB = write()
			}
			tamper(rng.c, bit, at)
			tamper(ref.c, bit, at)
		default:
			errA, errB = write()
		}
		if !sameErr(errA, errB) {
			t.Fatalf("%s: range error %v, line by line %v", what, errA, errB)
		}
		if oa, ob := rng.observe(), ref.observe(); !reflect.DeepEqual(oa, ob) {
			t.Fatalf("%s: observable state differs\nrange:        %+v\nline by line: %+v", what, oa, ob)
		}
	}
	if sa, sb := rng.stored(t), ref.stored(t); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("stored state differs after the script (root counters %d / %d, %d / %d dirty lines, %d / %d dirty nodes)",
			sa.rootCounter, sb.rootCounter, len(sa.dirtyLines), len(sb.dirtyLines), len(sa.dirtyNodes), len(sb.dirtyNodes))
	}
	if err := rng.c.VerifyRegions([]int{0}, 1); err != nil {
		t.Fatalf("region does not scrub clean after the script: %v", err)
	}
	return rng.c.Stats().ReencryptedLines
}

// rangeGeometries are the shapes the twin tests and the fuzz target run
// over: the small test tree, one whose two-bit locals overflow within a
// few writes, and the default 2 MB tree with its 64-line leaves.
var rangeGeometries = []tree.Geometry{
	{Arities: []int{2, 3, 4}},
	{Arities: []int{2, 4}, LocalBits: 2},
	tree.ForLevels(3),
}

// TestRangeMatchesLineByLine: a seeded random mix of range reads and
// writes leaves twin controllers indistinguishable, on every geometry and
// through counter overflow.
func TestRangeMatchesLineByLine(t *testing.T) {
	for i, geo := range rangeGeometries {
		script := make([]byte, 6*300)
		rand.New(rand.NewSource(int64(i) + 1)).Read(script)
		reencrypted := rangeVsLine(t, geo, script)
		if (geo.LocalBits != 0) != (reencrypted > 0) {
			t.Fatalf("%v: %d lines re-encrypted: the overflow geometry must reach the overflow procedure and only it", geo, reencrypted)
		}
	}
}

// TestRangeOverflowInsideKeyedRun: a 64-line WriteRange over a leaf one
// of whose lines — the 2nd, the middle or the last — is one bump short of
// wrapping its local counter, after a range read has keyed the whole run
// ahead. The overflow resets every sibling's counter and re-encrypts it, so
// no key derived ahead may survive it: ciphertext, line MACs, serialized
// tree, dirty sets, Stats, clock and trace end byte for byte as the
// line-by-line loop leaves them, and every line agrees with the slow
// reference at the counter the tree now holds.
func TestRangeOverflowInsideKeyedRun(t *testing.T) {
	geo := tree.Geometry{Arities: []int{2, 64}, LocalBits: 6} // a local counter wraps at its 64th bump
	const first, n = 64, 64                                   // the second leaf
	refEng := crypt.NewEngine(testKey)
	for _, at := range []int{1, n / 2, n - 1} {
		rng, ref := newTwin(t, geo), newTwin(t, geo)
		one := bytes.Repeat([]byte{byte(at)}, LineSize)
		for range 1<<geo.LocalBits - 1 {
			if err := errors.Join(rng.c.Write(0, first+at, one), ref.c.Write(0, first+at, one)); err != nil {
				t.Fatal(err)
			}
		}
		a, b := make([]byte, n*LineSize), make([]byte, n*LineSize)
		if err := errors.Join(rng.c.ReadRange(0, first, a), ref.readLines(first, b)); err != nil || !bytes.Equal(a, b) {
			t.Fatalf("overflow at line %d: keying read: %v", at, err)
		}
		for i := range a {
			a[i] = byte(i*3 + at)
		}
		if err := errors.Join(rng.c.WriteRange(0, first, a), ref.writeLines(first, a)); err != nil {
			t.Fatal(err)
		}
		if got := rng.c.Stats().ReencryptedLines; got != n-1 {
			t.Fatalf("overflow at line %d: %d sibling lines re-encrypted, want %d", at, got, n-1)
		}
		if oa, ob := rng.observe(), ref.observe(); !reflect.DeepEqual(oa, ob) {
			t.Fatalf("overflow at line %d: observable state differs\nrange:        %+v\nline by line: %+v", at, oa, ob)
		}
		if sa, sb := rng.stored(t), ref.stored(t); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("overflow at line %d: stored state differs (root counters %d / %d)", at, sa.rootCounter, sb.rootCounter)
		}
		for line := first; line < first+n; line++ {
			tw := crypt.Tweak{GUAddr: 0x11, Line: uint32(line), Counter: rng.c.Tree(0).LeafCounter(line)}
			want := bytes.Clone(a[(line-first)*LineSize : (line-first+1)*LineSize])
			refEng.XORPad(tw, want)
			if ct, mac := rng.c.LineState(0, line); !bytes.Equal(ct, want) || mac != refEng.LineMAC(tw, ct) {
				t.Fatalf("overflow at line %d: line %d disagrees with XORPad/LineMAC", at, line)
			}
		}
		if err := rng.c.ReadRange(0, first, b); err != nil || !bytes.Equal(a, b) {
			t.Fatalf("overflow at line %d: read back: %v", at, err)
		}
	}
}

// FuzzRangeVsLine is TestRangeMatchesLineByLine with the fuzzer choosing
// the geometry and the script.
func FuzzRangeVsLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, geo uint8, script []byte) {
		rangeVsLine(t, rangeGeometries[int(geo)%len(rangeGeometries)], script[:min(len(script), 6*64)])
	})
}

// spanTamperGeo has 4-line leaves, so the span the tamper table uses —
// lines [2, 16) — crosses four leaf runs: [2,4) [4,8) [8,12) [12,16).
var spanTamperGeo = tree.Geometry{Arities: []int{2, 3, 4}}

const spanFirst, spanLines = 2, 14

// TestRangeTamper: whatever an attacker flips under a span — a node MAC
// at any level, a line MAC, a ciphertext byte — and wherever in the span
// it sits, the range kernels fail exactly as the line-by-line loop does:
// same error, same failing line, the lines before it delivered or
// written, nothing after it touched, and the tree unchanged by the
// failing run.
func TestRangeTamper(t *testing.T) {
	names := []string{"line MAC", "ciphertext"}
	for l := 0; l < spanTamperGeo.Levels(); l++ {
		names = append(names, fmt.Sprintf("node MAC level %d", l))
	}
	for kind, name := range names {
		for _, at := range []int{spanFirst, spanFirst + spanLines/2, spanFirst + spanLines - 1} {
			for _, write := range []bool{false, true} {
				if write && kind < 2 {
					continue // a write replaces the line and its MAC without reading either
				}
				t.Run(fmt.Sprintf("%s/line%d/write=%v", name, at, write), func(t *testing.T) {
					rng, ref := newTwin(t, spanTamperGeo), newTwin(t, spanTamperGeo)
					tamper(rng.c, kind, at)
					tamper(ref.c, kind, at)
					a, b := make([]byte, spanLines*LineSize), make([]byte, spanLines*LineSize)
					var errA, errB error
					if write {
						for i := range a {
							a[i] = byte(i*5 + 1)
						}
						errA, errB = rng.c.WriteRange(0, spanFirst, a), ref.writeLines(spanFirst, a)
					} else {
						errA, errB = rng.c.ReadRange(0, spanFirst, a), ref.readLines(spanFirst, b)
						if !bytes.Equal(a, b) {
							t.Fatal("delivered plaintext differs")
						}
					}
					if !errors.Is(errA, ErrIntegrity) || !sameErr(errA, errB) {
						t.Fatalf("range error %v, line by line %v, want the same ErrIntegrity", errA, errB)
					}
					if oa, ob := rng.observe(), ref.observe(); !reflect.DeepEqual(oa, ob) {
						t.Fatalf("observable state differs\nrange:        %+v\nline by line: %+v", oa, ob)
					}
					if sa, sb := rng.stored(t), ref.stored(t); !reflect.DeepEqual(sa, sb) {
						t.Fatalf("stored state differs: dirty lines %v / %v, dirty nodes %v / %v", sa.dirtyLines, sb.dirtyLines, sa.dirtyNodes, sb.dirtyNodes)
					}
				})
			}
		}
	}
}

// TestRangeModes: the range kernels refuse what the single-line entry
// points refuse — any access to a disabled region, a write to a read-only
// one (which is also what core holds a sending MMT in) — before touching
// anything, and quiet mode suspends their accounting the same way.
func TestRangeModes(t *testing.T) {
	span := make([]byte, 3*LineSize)
	for _, tc := range []struct {
		mode        Mode
		read, write error
	}{
		{ModeDisabled, ErrDisabled, ErrDisabled},
		{ModeReadOnly, nil, ErrReadOnly},
		{ModeReadWrite, nil, nil},
	} {
		rng, ref := newTwin(t, spanTamperGeo), newTwin(t, spanTamperGeo)
		for _, w := range []twin{rng, ref} {
			if err := w.c.SetMode(0, tc.mode); err != nil {
				t.Fatal(err)
			}
		}
		if err := rng.c.ReadRange(0, 3, span); !errors.Is(err, tc.read) || !sameErr(err, ref.readLines(3, span)) {
			t.Fatalf("%v: ReadRange error %v, want %v as line by line", tc.mode, err, tc.read)
		}
		if err := rng.c.WriteRange(0, 3, span); !errors.Is(err, tc.write) || !sameErr(err, ref.writeLines(3, span)) {
			t.Fatalf("%v: WriteRange error %v, want %v as line by line", tc.mode, err, tc.write)
		}
		if oa, ob := rng.observe(), ref.observe(); !reflect.DeepEqual(oa, ob) {
			t.Fatalf("%v: observable state differs\nrange:        %+v\nline by line: %+v", tc.mode, oa, ob)
		}
	}

	rng, ref := newTwin(t, spanTamperGeo), newTwin(t, spanTamperGeo)
	before := rng.observe()
	for _, w := range []twin{rng, ref} {
		w.c.SetQuiet(true)
	}
	if err := errors.Join(rng.c.WriteRange(0, 3, span), rng.c.ReadRange(0, 3, span), ref.writeLines(3, span), ref.readLines(3, span)); err != nil {
		t.Fatal(err)
	}
	after := rng.observe()
	if after.now != before.now || after.stats.Cycles != before.stats.Cycles || after.metrics.Cycles != before.metrics.Cycles {
		t.Fatalf("quiet range access was charged: %+v -> %+v", before, after)
	}
	if ob := ref.observe(); !reflect.DeepEqual(after, ob) {
		t.Fatalf("quiet: observable state differs\nrange:        %+v\nline by line: %+v", after, ob)
	}
}
