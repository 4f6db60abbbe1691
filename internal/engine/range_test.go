package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mmt/internal/crypt"
	"mmt/internal/mem"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// twin is one of two identically built, traced controllers a test drives
// side by side: one through the range kernels, one line by line.
type twin struct {
	c    *Controller
	sink *trace.Sink
}

// twinSetup is how a pair of twins is built: the tree, the cost profile
// (nil: Gem5's; the twin tests vary its two table sizes), how many regions
// are enabled (0: one) and whether a windowed sampler rides on the clock.
type twinSetup struct {
	geo     tree.Geometry
	prof    *sim.Profile
	regions int
	series  bool
}

// seriesWindow is the twins' sampling window: some thirty accesses, so a
// script crosses hundreds of windows and the 64-sample ring evicts.
const seriesWindow = 1 << 12

func newTwin(t testing.TB, s twinSetup) twin {
	t.Helper()
	prof, regions := s.prof, max(s.regions, 1)
	if prof == nil {
		prof = sim.Gem5Profile()
	}
	m := mem.New(mem.Config{Size: regions * s.geo.DataSize(), RegionSize: s.geo.DataSize(), MetaPerRegion: s.geo.MetaSize()})
	c, err := New(m, s.geo, nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	w := twin{c: c, sink: trace.NewSink()}
	probe := w.sink.Probe("twin")
	if s.series {
		if err := w.sink.EnableSeries(trace.SeriesConfig{WindowCycles: seriesWindow}); err != nil {
			t.Fatal(err)
		}
		c.Clock().SetWindowHook(seriesWindow, probe.ObserveWindow)
	}
	c.SetTrace(probe)
	for r := range regions {
		fill(c, r, byte(3+r))
		if err := c.Enable(r, testKey, uint64(0x11+r), 0); err != nil {
			t.Fatal(err)
		}
		c.ClearRegionDirty(r)
	}
	return w
}

// readLines and writeLines are the line-by-line reference: the loop every
// caller ran before the range kernels existed.
func (w twin) readLines(r, line int, dst []byte) error {
	for ; len(dst) > 0; line, dst = line+1, dst[LineSize:] {
		if err := w.c.ReadInto(r, line, dst[:LineSize]); err != nil {
			return err
		}
	}
	return nil
}

func (w twin) writeLines(r, line int, src []byte) error {
	for ; len(src) > 0; line, src = line+1, src[LineSize:] {
		if err := w.c.Write(r, line, src[:LineSize]); err != nil {
			return err
		}
	}
	return nil
}

// observed is everything a caller can see of a controller between two
// calls, short of its stored data: activity counters, the simulated
// clock, the regions' modes, every trace accumulator, the sampled series,
// the security ledger and the serialized trees — reading those is an
// observation of every node MAC, so each op of a twin script ends with the
// MACs its writes deferred being computed (DESIGN.md §19). The two
// functional-work counters are left out — doing that work once per run is
// the point of the range kernels (DESIGN.md §17).
type observed struct {
	stats   Stats
	now     sim.Time
	modes   []Mode
	metrics trace.ProcMetrics
	series  trace.SeriesView
	events  []trace.SecEvent
	trees   [][]byte
}

func (w twin) observe() observed {
	functional := func(c []uint64) {
		c[trace.CtrTreeNodeVerifies], c[trace.CtrTreeNodeRehashes] = 0, 0
	}
	o := observed{stats: w.c.Stats(), now: w.c.Clock().Now(), metrics: w.sink.Snapshot().Procs[0], events: w.sink.SecEvents()}
	functional(o.metrics.Counters[:])
	for r := range w.c.regions {
		o.modes = append(o.modes, w.c.Mode(r))
		if tr := w.c.Tree(r); tr != nil {
			o.trees = append(o.trees, tr.Serialize())
		}
	}
	o.series, _ = w.sink.SeriesSnapshot()
	for i := range o.series.Procs {
		p := &o.series.Procs[i]
		functional(p.Evicted.Counters[:])
		functional(p.Totals.Counters[:])
		for j := range p.Samples {
			functional(p.Samples[j].Counters[:])
		}
	}
	return o
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

func (w twin) stored(t testing.TB, r int) stored {
	t.Helper()
	tb, data, macs, root, _, err := w.c.Export(r)
	if err != nil {
		t.Fatal(err)
	}
	s := stored{tree: tb, data: bytes.Clone(data), macs: slices.Clone(macs), rootCounter: root}
	w.c.DirtyLines(r, func(line int) { s.dirtyLines = append(s.dirtyLines, line) })
	w.c.Tree(r).DirtyNodes(func(l, i int) { s.dirtyNodes = append(s.dirtyNodes, [2]int{l, i}) })
	return s
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// tamper flips one bit of region r's untrusted state under line: kind 0
// its line MAC, kind 1 its ciphertext, kind 2+l the MAC of the level-l
// node covering it. Flipping twice restores the state.
func tamper(c *Controller, r, kind, line int) {
	switch kind {
	case 0:
		c.regions[r].lineMACs[line] ^= 1
	case 1:
		c.Memory().RegionData(r)[line*LineSize+9] ^= 0x40
	default:
		n := c.Tree(r).Node(kind-2, line/c.lay.Level[kind-2].Span)
		n.SetMAC(n.MAC() ^ 1)
	}
}

// rangeVsLine runs one op script on twin controllers — every span through
// ReadRange/WriteRange on one, line by line on the other — and fails on
// the first observable difference: results and everything in observed
// after every op, everything in stored at the end. It returns how many
// lines the overflow procedure re-encrypted.
//
// An op is six script bytes: kind and region (the low three bits and the
// rest of the first byte), start line (2), span length (2) and a seed.
// Spans reach over up to five leaf runs. Besides reads, writes and
// clearing the dirty sets there is a tamper op: flip one bit somewhere
// under the span on both twins, read the span — and, when the bit is in a
// node MAC, which a write checks too, write it — then flip the bit back.
// A failing access stops at the tampered run's first line having changed
// nothing of that run, so the region is whole again afterwards. (Not so
// where an earlier run of the write overflows an interior counter: that
// re-MACs every child of the node, the flipped MAC included, and the flip
// back would be the tamper. The narrow-locals geometries skip the write.)
func rangeVsLine(t testing.TB, setup twinSetup, script []byte) uint64 {
	t.Helper()
	geo := setup.geo
	rng, ref := newTwin(t, setup), newTwin(t, setup)
	lines, leaf, regions := geo.Lines(), geo.Arities[geo.Levels()-1], len(rng.c.regions)
	for op := 0; len(script) >= 6; op, script = op+1, script[6:] {
		line := int(binary.LittleEndian.Uint16(script[1:])) % lines
		n := 1 + int(binary.LittleEndian.Uint16(script[3:]))%min(lines-line, 4*leaf+1)
		kind, r, seed := script[0]%8, int(script[0]>>3)%regions, script[5]
		what := fmt.Sprintf("op %d (kind %d, region %d, lines [%d,+%d), seed %d)", op, kind, r, line, n, seed)
		a, b := make([]byte, n*LineSize), make([]byte, n*LineSize)
		read := func() (error, error) {
			errA, errB := rng.c.ReadRange(r, line, a), ref.readLines(r, line, b)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: plaintext differs", what)
			}
			return errA, errB
		}
		write := func() (error, error) {
			for i := range a {
				a[i] = seed + byte(i*7)
			}
			return rng.c.WriteRange(r, line, a), ref.writeLines(r, line, a)
		}
		var errA, errB error
		switch kind {
		case 7:
			rng.c.ClearRegionDirty(r)
			ref.c.ClearRegionDirty(r)
		case 4, 5, 6:
			errA, errB = read()
		case 3:
			bit, at := int(seed)%(2+geo.Levels()), line+int(seed>>3)%n
			tamper(rng.c, r, bit, at)
			tamper(ref.c, r, bit, at)
			errA, errB = read()
			if !errors.Is(errA, ErrIntegrity) {
				t.Fatalf("%s: tamper kind %d at line %d went unnoticed by the read: %v", what, bit, at, errA)
			}
			if bit >= 2 && geo.LocalBits == 0 && sameErr(errA, errB) {
				errA, errB = write()
			}
			tamper(rng.c, r, bit, at)
			tamper(ref.c, r, bit, at)
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
	for r := range regions {
		if sa, sb := rng.stored(t, r), ref.stored(t, r); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("region %d: stored state differs after the script (root counters %d / %d, %d / %d dirty lines, %d / %d dirty nodes)",
				r, sa.rootCounter, sb.rootCounter, len(sa.dirtyLines), len(sb.dirtyLines), len(sa.dirtyNodes), len(sb.dirtyNodes))
		}
		st := rng.c.region(r)
		if err := st.tr.VerifyAll(st.eng, st.guaddr); err != nil {
			t.Fatalf("region %d: tree does not verify after the script: %v", r, err)
		}
		if bad := sweepLineMACs(st.eng, st.tr, st.guaddr, rng.c.mem.RegionData(r), st.lineMACs, make([]byte, 64*crypt.MaskBaseSize), 0, rng.c.lay.Lines); bad >= 0 {
			t.Fatalf("region %d: line %d's MAC does not verify after the script", r, bad)
		}
	}
	if setup.series {
		if v, on := rng.sink.SeriesSnapshot(); !on || v.Check() != nil || len(v.Procs) != 1 {
			t.Fatalf("sampled series (on=%v) does not hold its own contract: %v", on, v.Check())
		}
	}
	return rng.c.Stats().ReencryptedLines
}

// rangeGeometries are the shapes the twin tests and the fuzz target run
// over: the small test tree, one whose two-bit locals overflow within a
// few writes, the default 2 MB tree with its 64-line leaves, one whose
// 128-line leaves are wider than any 64-line group the planes are keyed by,
// and one of 576 lines in 96-line leaves with two-bit locals, whose leaf
// runs the 64-line groups split, whose pipe chunks are 192 lines (two
// leaves, three groups) and whose overflows fall in the middle of a
// pipelined span.
var rangeGeometries = []tree.Geometry{
	{Arities: []int{2, 3, 4}},
	{Arities: []int{2, 4}, LocalBits: 2},
	tree.ForLevels(3),
	{Arities: []int{2, 2, 128}},
	{Arities: []int{2, 3, 96}, LocalBits: 2},
}

// sweepProcs are the processor counts the twin tests run at: one, where
// every span is read and written inline, and two and four, where a span of
// more than one pipe chunk is pipelined (newPipe).
var sweepProcs = []int{1, 2, 4}

// twinSetups are the twin builds the differential test and the fuzz target
// choose from: every geometry under the Gem5 profile, then the builds the
// all-hit charge of a run's further lines (Controller.chargeRest) must not
// be taken on, or only just — a node cache that holds nothing, one leaf
// node, one byte less than a path, exactly a path — then a one-entry root
// table with two regions taking turns, so every switch remounts a root
// between runs, and a windowed sampler on the clock, whose samples see
// the accumulators as they stand at every line's advance.
func twinSetups() []twinSetup {
	var setups []twinSetup
	for _, geo := range rangeGeometries {
		setups = append(setups, twinSetup{geo: geo})
	}
	withTables := func(cacheBytes, rootBytes int) *sim.Profile {
		p := sim.Gem5Profile()
		p.MMTCacheBytes, p.RootTableSoC = cacheBytes, rootBytes
		return p
	}
	for _, geo := range []tree.Geometry{rangeGeometries[0], rangeGeometries[2]} {
		lay, _ := geo.Layout()
		leaf, path := lay.Level[len(lay.Level)-1].NodeSize, 0
		for _, lv := range lay.Level {
			path += lv.NodeSize
		}
		for _, cacheBytes := range []int{0, leaf, path - 1, path} {
			setups = append(setups, twinSetup{geo: geo, prof: withTables(cacheBytes, 8<<10)})
		}
		setups = append(setups,
			twinSetup{geo: geo, prof: withTables(32<<10, rootEntryBytes), regions: 2},
			twinSetup{geo: geo, prof: withTables(path, rootEntryBytes), regions: 2, series: true},
			twinSetup{geo: geo, series: true})
	}
	return setups
}

func (s twinSetup) String() string {
	prof := s.prof
	if prof == nil {
		prof = sim.Gem5Profile()
	}
	return fmt.Sprintf("arities %v local bits %d, node cache %d B, root table %d B, %d regions, series %v",
		s.geo.Arities, s.geo.LocalBits, prof.MMTCacheBytes, prof.RootTableSoC, max(s.regions, 1), s.series)
}

// TestRangeMatchesLineByLine: a seeded random mix of range reads and
// writes leaves twin controllers indistinguishable, on every geometry,
// through counter overflow, and at every node-cache and root-table size
// that decides how a run's further lines are charged. The all-hit charge
// must be on exactly when a path fits the node cache. Every script runs at
// each of sweepProcs.
func TestRangeMatchesLineByLine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, setup := range twinSetups() {
		script := make([]byte, 6*300)
		rand.New(rand.NewSource(int64(i) + 1)).Read(script)
		for _, procs := range sweepProcs {
			t.Run(fmt.Sprintf("setup%d/GOMAXPROCS=%d", i, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				reencrypted := rangeVsLine(t, setup, script)
				if (setup.geo.LocalBits != 0) != (reencrypted > 0) {
					t.Fatalf("%v: %d lines re-encrypted: the overflow geometries must reach the overflow procedure and only they", setup, reencrypted)
				}
			})
		}
		w := newTwin(t, setup)
		path := 0
		for _, lv := range w.c.lay.Level {
			path += lv.NodeSize
		}
		if want := path <= w.c.Profile().MMTCacheBytes; w.c.pathFits != want {
			t.Fatalf("%v: pathFits = %v with a %d-byte path", setup, w.c.pathFits, path)
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
		rng, ref := newTwin(t, twinSetup{geo: geo}), newTwin(t, twinSetup{geo: geo})
		one := bytes.Repeat([]byte{byte(at)}, LineSize)
		for range 1<<geo.LocalBits - 1 {
			if err := errors.Join(rng.c.Write(0, first+at, one), ref.c.Write(0, first+at, one)); err != nil {
				t.Fatal(err)
			}
		}
		a, b := make([]byte, n*LineSize), make([]byte, n*LineSize)
		if err := errors.Join(rng.c.ReadRange(0, first, a), ref.readLines(0, first, b)); err != nil || !bytes.Equal(a, b) {
			t.Fatalf("overflow at line %d: keying read: %v", at, err)
		}
		for i := range a {
			a[i] = byte(i*3 + at)
		}
		if err := errors.Join(rng.c.WriteRange(0, first, a), ref.writeLines(0, first, a)); err != nil {
			t.Fatal(err)
		}
		if got := rng.c.Stats().ReencryptedLines; got != n-1 {
			t.Fatalf("overflow at line %d: %d sibling lines re-encrypted, want %d", at, got, n-1)
		}
		if oa, ob := rng.observe(), ref.observe(); !reflect.DeepEqual(oa, ob) {
			t.Fatalf("overflow at line %d: observable state differs\nrange:        %+v\nline by line: %+v", at, oa, ob)
		}
		if sa, sb := rng.stored(t, 0), ref.stored(t, 0); !reflect.DeepEqual(sa, sb) {
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
// the twin build and the script, each input run at every one of sweepProcs.
func FuzzRangeVsLine(f *testing.F) {
	setups := twinSetups()
	f.Fuzz(func(t *testing.T, setup uint8, script []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, procs := range sweepProcs {
			runtime.GOMAXPROCS(procs)
			rangeVsLine(t, setups[int(setup)%len(setups)], script[:min(len(script), 6*64)])
		}
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
					rng, ref := newTwin(t, twinSetup{geo: spanTamperGeo}), newTwin(t, twinSetup{geo: spanTamperGeo})
					tamper(rng.c, 0, kind, at)
					tamper(ref.c, 0, kind, at)
					a, b := make([]byte, spanLines*LineSize), make([]byte, spanLines*LineSize)
					var errA, errB error
					if write {
						for i := range a {
							a[i] = byte(i*5 + 1)
						}
						errA, errB = rng.c.WriteRange(0, spanFirst, a), ref.writeLines(0, spanFirst, a)
					} else {
						errA, errB = rng.c.ReadRange(0, spanFirst, a), ref.readLines(0, spanFirst, b)
						if !bytes.Equal(a, b) {
							t.Fatal("delivered plaintext differs")
						}
					}
					if !errors.Is(errA, ErrIntegrity) || !sameErr(errA, errB) {
						t.Fatalf("range error %v, line by line %v, want the same ErrIntegrity", errA, errB)
					}
					if ev := rng.sink.SecEvents(); len(ev) == 0 || ev[len(ev)-1].Kind != trace.EvIntegrityFail {
						t.Fatalf("ledger after the failing run: %+v, want an integrity failure last", ev)
					}
					if oa, ob := rng.observe(), ref.observe(); !reflect.DeepEqual(oa, ob) {
						t.Fatalf("observable state differs\nrange:        %+v\nline by line: %+v", oa, ob)
					}
					if sa, sb := rng.stored(t, 0), ref.stored(t, 0); !reflect.DeepEqual(sa, sb) {
						t.Fatalf("stored state differs: dirty lines %v / %v, dirty nodes %v / %v", sa.dirtyLines, sb.dirtyLines, sa.dirtyNodes, sb.dirtyNodes)
					}
				})
			}
		}
	}
	tamperSwept(t, names)
}

// tamperSwept is TestRangeTamper over the default tree's whole 2 MB region
// at 2 and 4 processors, where a span is pipelined in chunks of 64 or 32
// groups: one flip in a later chunk than the first, and two flips in
// different chunks, the first failing run inside its chunk, not at its
// start, so a write has passed lines of that chunk when it stops. The read names the lowest failing line, delivers
// every line before it and leaves dst untouched from it on; the write
// stops at the same run with the runs before it written, as line by line.
func tamperSwept(t *testing.T, names []string) {
	geo := tree.ForLevels(3)
	lay, _ := geo.Layout()
	lines := lay.Lines
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, flips := range [][]int{{lines*5/8 + 700}, {lines/4 + 1000, lines*7/8 + 5}} {
		for kind, name := range names {
			// The first line a line-by-line access fails at: the flipped
			// line, or the first line under the flipped node.
			fail := lines
			for _, at := range flips {
				if kind >= 2 {
					span := lay.Level[kind-2].Span
					if len(flips) > 1 && flips[0]/span == flips[1]/span {
						fail = -1 // both flips land on one node MAC and cancel
						break
					}
					at -= at % span
				}
				fail = min(fail, at)
			}
			if fail < 0 {
				continue
			}
			for _, write := range []bool{false, true} {
				for _, procs := range sweepProcs[1:] {
					if write && kind < 2 {
						continue
					}
					t.Run(fmt.Sprintf("2MB/%s/lines%v/write=%v/GOMAXPROCS=%d", name, flips, write, procs), func(t *testing.T) {
						runtime.GOMAXPROCS(procs)
						rng, ref := newTwin(t, twinSetup{geo: geo}), newTwin(t, twinSetup{geo: geo})
						for _, at := range flips {
							tamper(rng.c, 0, kind, at)
							tamper(ref.c, 0, kind, at)
						}
						a, b := bytes.Repeat([]byte{0xEE}, lines*LineSize), bytes.Repeat([]byte{0xEE}, lines*LineSize)
						var errA, errB error
						if write {
							for i := range a {
								a[i] = byte(i*5 + 1)
							}
							errA, errB = rng.c.WriteRange(0, 0, a), ref.writeLines(0, 0, a)
						} else {
							errA, errB = rng.c.ReadRange(0, 0, a), ref.readLines(0, 0, b)
							if !bytes.Equal(a, b) {
								t.Fatal("delivered plaintext differs")
							}
							if !bytes.Equal(a[fail*LineSize:], bytes.Repeat([]byte{0xEE}, (lines-fail)*LineSize)) {
								t.Fatalf("dst written at or after the failing line %d", fail)
							}
						}
						if !errors.Is(errA, ErrIntegrity) || !sameErr(errA, errB) {
							t.Fatalf("range error %v, line by line %v, want the same ErrIntegrity", errA, errB)
						}
						if oa, ob := rng.observe(), ref.observe(); !reflect.DeepEqual(oa, ob) {
							t.Fatalf("observable state differs\nrange:        %+v\nline by line: %+v", oa, ob)
						}
						if sa, sb := rng.stored(t, 0), ref.stored(t, 0); !reflect.DeepEqual(sa, sb) {
							t.Fatalf("stored state differs: %d / %d dirty lines", len(sa.dirtyLines), len(sb.dirtyLines))
						}
					})
				}
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
		rng, ref := newTwin(t, twinSetup{geo: spanTamperGeo}), newTwin(t, twinSetup{geo: spanTamperGeo})
		for _, w := range []twin{rng, ref} {
			if err := w.c.SetMode(0, tc.mode); err != nil {
				t.Fatal(err)
			}
		}
		if err := rng.c.ReadRange(0, 3, span); !errors.Is(err, tc.read) || !sameErr(err, ref.readLines(0, 3, span)) {
			t.Fatalf("%v: ReadRange error %v, want %v as line by line", tc.mode, err, tc.read)
		}
		if err := rng.c.WriteRange(0, 3, span); !errors.Is(err, tc.write) || !sameErr(err, ref.writeLines(0, 3, span)) {
			t.Fatalf("%v: WriteRange error %v, want %v as line by line", tc.mode, err, tc.write)
		}
		if oa, ob := rng.observe(), ref.observe(); !reflect.DeepEqual(oa, ob) {
			t.Fatalf("%v: observable state differs\nrange:        %+v\nline by line: %+v", tc.mode, oa, ob)
		}
	}

	rng, ref := newTwin(t, twinSetup{geo: spanTamperGeo}), newTwin(t, twinSetup{geo: spanTamperGeo})
	before := rng.observe()
	for _, w := range []twin{rng, ref} {
		w.c.SetQuiet(true)
	}
	if err := errors.Join(rng.c.WriteRange(0, 3, span), rng.c.ReadRange(0, 3, span), ref.writeLines(0, 3, span), ref.readLines(0, 3, span)); err != nil {
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

// TestRangeRefusesBadSpan: a span that is not whole lines, or that starts
// or ends outside the region, is refused with an error — not a panic from
// the tree's bounds guard or a slice bound halfway through — before any
// line is counted or charged: Stats, the clock, every trace accumulator,
// the ledger, the tree, the data and the dirty sets stay as they were. The
// single-line entry points go through the same check.
func TestRangeRefusesBadSpan(t *testing.T) {
	w := newTwin(t, twinSetup{geo: spanTamperGeo, series: true})
	lines := spanTamperGeo.Lines()
	buf := make([]byte, (lines+2)*LineSize)
	if err := errors.Join(w.c.WriteRange(0, 0, buf[:lines*LineSize]), w.c.ReadRange(0, 0, buf[:lines*LineSize])); err != nil {
		t.Fatal(err) // the whole region, and an empty span at its end, are fine
	}
	if err := errors.Join(w.c.ReadRange(0, lines, nil), w.c.WriteRange(0, lines, nil)); err != nil {
		t.Fatalf("empty span at the region's end: %v", err)
	}
	observedBefore, storedBefore := w.observe(), w.stored(t, 0)
	for _, tc := range []struct {
		name     string
		line, n  int
		oneLiner bool // also a valid argument shape for ReadInto/Write
	}{
		{"one byte short of a line", 3, LineSize - 1, false},
		{"a line and a byte", 3, LineSize + 1, false},
		{"ragged tail after whole runs", 2, 9*LineSize + 8, false},
		{"negative line", -1, LineSize, true},
		{"first line past the end", lines, LineSize, true},
		{"last line past the end", lines - 3, 4 * LineSize, false},
		{"far past the end", 1 << 40, LineSize, true},
		{"longer than the region", 0, (lines + 1) * LineSize, false},
	} {
		calls := map[string]func() error{
			"ReadRange":  func() error { return w.c.ReadRange(0, tc.line, buf[:tc.n]) },
			"WriteRange": func() error { return w.c.WriteRange(0, tc.line, buf[:tc.n]) },
		}
		if tc.oneLiner {
			calls["ReadInto"] = func() error { return w.c.ReadInto(0, tc.line, buf[:LineSize]) }
			calls["Write"] = func() error { return w.c.Write(0, tc.line, buf[:LineSize]) }
		}
		for name, call := range calls {
			if err := call(); err == nil || errors.Is(err, ErrIntegrity) {
				t.Fatalf("%s, %s: err = %v, want a span error", tc.name, name, err)
			}
			if o := w.observe(); !reflect.DeepEqual(o, observedBefore) {
				t.Fatalf("%s, %s: a refused span changed the observable state\nbefore: %+v\nafter:  %+v", tc.name, name, observedBefore, o)
			}
			if s := w.stored(t, 0); !reflect.DeepEqual(s, storedBefore) {
				t.Fatalf("%s, %s: a refused span changed the stored state", tc.name, name)
			}
		}
	}
}

// TestBoundRegionAllDirty: a region bound by Enable or by Install starts
// with exactly the lines 0…Lines-1 marked dirty — every one, since neither
// fresh ciphertext nor a transferred closure has been checkpointed here,
// and none past the end, where the word fill's last word is masked (24 and
// 8 lines are not multiples of 64).
func TestBoundRegionAllDirty(t *testing.T) {
	for _, geo := range rangeGeometries {
		m := mem.New(mem.Config{Size: 2 * geo.DataSize(), RegionSize: geo.DataSize(), MetaPerRegion: geo.MetaSize()})
		c, err := New(m, geo, nil, sim.Gem5Profile())
		if err != nil {
			t.Fatal(err)
		}
		fill(c, 0, 9)
		if err := c.Enable(0, testKey, 0x31, 4); err != nil {
			t.Fatal(err)
		}
		tb, data, macs, root, guaddr, err := c.Export(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Install(1, testKey, guaddr, root, tb, data, macs, ModeReadWrite); err != nil {
			t.Fatal(err)
		}
		for r, how := range []string{"Enable", "Install"} {
			var got []int
			c.DirtyLines(r, func(line int) { got = append(got, line) })
			if len(got) != geo.Lines() || got[0] != 0 || got[len(got)-1] != geo.Lines()-1 || !slices.IsSorted(got) {
				t.Fatalf("%v: %d dirty lines after %s, from %d to %d; want exactly 0…%d", geo.Arities, len(got), how, got[0], got[len(got)-1], geo.Lines()-1)
			}
			c.ClearRegionDirty(r)
			if c.RegionDirty(r) {
				t.Fatalf("%v: region still dirty after ClearRegionDirty following %s", geo.Arities, how)
			}
		}
	}
}
