package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mmt/internal/engine"
	"mmt/internal/sim"
	"mmt/internal/tree"
)

// lineLoopRead and lineLoopWrite are the span splitting every caller of
// the line API used to carry — one ReadInto or Write per line, partial
// lines staged — kept here as the reference for ReadAt and WriteAt.
func lineLoopRead(m *MMT, off int, dst []byte) error {
	var stage [engine.LineSize]byte
	for len(dst) > 0 {
		line, lo := off/engine.LineSize, off%engine.LineSize
		take := min(engine.LineSize-lo, len(dst))
		if err := m.ReadInto(line, stage[:]); err != nil {
			return err
		}
		copy(dst, stage[lo:lo+take])
		off, dst = off+take, dst[take:]
	}
	return nil
}

func lineLoopWrite(m *MMT, off int, p []byte) error {
	var stage [engine.LineSize]byte
	for len(p) > 0 {
		line, lo := off/engine.LineSize, off%engine.LineSize
		take := min(engine.LineSize-lo, len(p))
		src := p[:take]
		if take < engine.LineSize {
			if err := m.ReadInto(line, stage[:]); err != nil {
				return err
			}
			copy(stage[lo:], src)
			src = stage[:]
		}
		if err := m.Write(line, src); err != nil {
			return err
		}
		off, p = off+take, p[take:]
	}
	return nil
}

// TestSpanSplitterMatchesLineLoop: over random byte spans — unaligned
// heads and tails, spans inside one line, whole-region spans — ReadAt and
// WriteAt return the bytes, and leave the controller's counters, clock
// and exported region, exactly as the line-by-line loop does.
func TestSpanSplitterMatchesLineLoop(t *testing.T) {
	nodes := [2]*Node{newTestNode(t, 1), newTestNode(t, 1)}
	var mmts [2]*MMT
	for i, n := range nodes {
		m, err := n.Acquire(0, connKey, 1)
		if err != nil {
			t.Fatal(err)
		}
		mmts[i] = m
	}
	size := testGeo.DataSize()
	shadow := make([]byte, size)
	rng := rand.New(rand.NewSource(14))
	for op := 0; op < 400; op++ {
		off := rng.Intn(size)
		n := rng.Intn(min(size-off, 6*engine.LineSize) + 1)
		if op%50 == 0 {
			off, n = 0, size
		}
		a, b := make([]byte, n), make([]byte, n)
		if rng.Intn(2) == 0 {
			rng.Read(a)
			copy(shadow[off:], a)
			if err := errors.Join(mmts[0].WriteAt(off, a), lineLoopWrite(mmts[1], off, a)); err != nil {
				t.Fatalf("op %d: write [%d,+%d): %v", op, off, n, err)
			}
		} else {
			if err := errors.Join(mmts[0].ReadAt(off, a), lineLoopRead(mmts[1], off, b)); err != nil {
				t.Fatalf("op %d: read [%d,+%d): %v", op, off, n, err)
			}
			if !bytes.Equal(a, shadow[off:off+n]) || !bytes.Equal(b, a) {
				t.Fatalf("op %d: read [%d,+%d) returned the wrong bytes", op, off, n)
			}
		}
		ca, cb := nodes[0].Controller(), nodes[1].Controller()
		if ca.Stats() != cb.Stats() || ca.Clock().Now() != cb.Clock().Now() {
			t.Fatalf("op %d [%d,+%d): stats %+v at %v, line loop %+v at %v", op, off, n, ca.Stats(), ca.Clock().Now(), cb.Stats(), cb.Clock().Now())
		}
	}
	ta, da, ma, ra, _, _ := nodes[0].Controller().Export(0)
	tb, db, mb, rb, _, _ := nodes[1].Controller().Export(0)
	if !bytes.Equal(ta, tb) || !bytes.Equal(da, db) || ra != rb || len(ma) != len(mb) {
		t.Fatal("exported regions differ")
	}
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("line MAC %d differs", i)
		}
	}
}

// TestSpanOutsideRegion: a span that leaves the region is an error from
// every byte-span entry point — before anything is read, written or
// allocated — not the tree's bounds panic after a partial write.
func TestSpanOutsideRegion(t *testing.T) {
	n := newTestNode(t, 1)
	m, err := n.Acquire(0, connKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	size, lines := testGeo.DataSize(), testGeo.Lines()
	before := n.Controller().Stats()
	buf := make([]byte, 3*engine.LineSize)
	for name, err := range map[string]error{
		"WriteAt past the end":      m.WriteAt(size-engine.LineSize, buf),
		"WriteAt negative offset":   m.WriteAt(-1, buf),
		"WriteAt beyond the region": m.WriteAt(size+engine.LineSize, buf[:1]),
		"ReadAt past the end":       m.ReadAt(size-engine.LineSize, buf),
		"ReadAt negative offset":    m.ReadAt(-engine.LineSize, buf),
		"WriteBytes padded tail":    m.WriteBytes(lines-1, buf[:engine.LineSize+1]),
		"WriteBytes past the end":   m.WriteBytes(lines-2, buf),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, count := range []int{size + 1, 1 << 32, -1} {
		if got, err := m.ReadBytes(0, count); err == nil || got != nil {
			t.Errorf("ReadBytes(0, %d): %d bytes, %v", count, len(got), err)
		}
	}
	if after := n.Controller().Stats(); after != before {
		t.Fatalf("refused spans reached the controller: %+v -> %+v", before, after)
	}
	// The last line and the whole region are inside.
	if err := errors.Join(m.WriteAt(size-engine.LineSize, buf[:engine.LineSize]), m.ReadAt(0, make([]byte, size)), m.WriteBytes(lines-1, buf[:5])); err != nil {
		t.Fatal(err)
	}
	// WriteBytes pads its last line with zeros; WriteAt keeps the rest.
	if err := errors.Join(m.WriteAt(0, bytes.Repeat([]byte{0xEE}, 2*engine.LineSize)), m.WriteBytes(0, []byte{1, 2, 3}), m.WriteAt(engine.LineSize, []byte{4, 5, 6})); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(0, 2*engine.LineSize)
	want := append(append(make([]byte, 0, 2*engine.LineSize), 1, 2, 3), make([]byte, engine.LineSize-3)...)
	want = append(append(want, 4, 5, 6), bytes.Repeat([]byte{0xEE}, engine.LineSize-3)...)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after WriteBytes and WriteAt: %x, %v", got, err)
	}
}

// TestSpanSplitterStates: the span entry points enforce the MMT state
// machine exactly as the line entry points do. While sending, whole-line
// and partial-line writes are refused with ErrState and reads go through —
// a partial-line write's staging read included, which is charged before
// its write is refused, as in the line loop; a received ownership copy
// refuses writes with ErrReadOnly; a reclaimed MMT refuses everything.
func TestSpanSplitterStates(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 20) // five lines
	var ctls [2]*engine.Controller
	var errs [2][4]error
	for i, write := range []func(*MMT, int, []byte) error{(*MMT).WriteAt, lineLoopWrite} {
		snd, _, sm, rm, sconn, rconn := pair(t, payload)
		ctls[i] = snd.Controller()
		cl, err := sm.BeginSend(sconn, OwnershipCopy)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload)-7)
		if err := sm.ReadAt(7, got); err != nil || !bytes.Equal(got, payload[7:]) {
			t.Fatalf("ReadAt while sending: %v", err)
		}
		errs[i][0] = write(sm, 0, payload[:2*engine.LineSize])
		errs[i][1] = write(sm, 10, payload[:engine.LineSize])
		if err := rm.Accept(rconn, cl.Encode()); err != nil {
			t.Fatal(err)
		}
		errs[i][2] = write(rm, 0, payload[:2*engine.LineSize])
		if err := errors.Join(sm.CompleteSend(true), sm.Reclaim()); err != nil {
			t.Fatal(err)
		}
		errs[i][3] = write(sm, 0, payload[:2*engine.LineSize])
		if err := sm.ReadAt(0, got); !errors.Is(err, ErrState) {
			t.Fatalf("ReadAt after reclaim: %v", err)
		}
	}
	for k, want := range []error{ErrState, ErrState, engine.ErrReadOnly, ErrState} {
		if a, b := errs[0][k], errs[1][k]; !errors.Is(a, want) || a.Error() != b.Error() {
			t.Errorf("write %d: WriteAt %v, line loop %v, want %v", k, a, b, want)
		}
	}
	if ctls[0].Stats() != ctls[1].Stats() || ctls[0].Clock().Now() != ctls[1].Clock().Now() {
		t.Fatalf("sender stats %+v, line loop %+v", ctls[0].Stats(), ctls[1].Stats())
	}
}

// TestSpanAllocsAcrossProcessors: at 2 and 4 processors, where the range
// kernels may cut a span across goroutines, the core entry points keep
// their stage lines on the stack. A single line (whole, and partial
// through the stage), a 64-line group and WriteBytes' padded last line
// allocate nothing; a whole 2 MB region costs a bounded number of objects
// per call — a goroutine per pipe chunk and per helper, about five per
// processor — however many leaf runs it has. testing.AllocsPerRun pins one
// processor, so this counts runtime.MemStats.Mallocs around the loop, and
// takes the lowest of five rounds: a goroutine of the runtime's, or of the
// race detector, can allocate inside one round, an op's own allocation
// shows in every round.
func TestSpanAllocsAcrossProcessors(t *testing.T) {
	geo := tree.ForLevels(3)
	ctl, err := engine.NewRegions(1, geo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewNode(1, ctl).Acquire(0, connKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	mallocs := func(runs int, op func()) float64 {
		op() // warm planes, node cache and root table
		least := math.Inf(1)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				op()
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.Mallocs-before.Mallocs)/float64(runs))
		}
		return least
	}
	region := make([]byte, geo.DataSize())
	line, group, tail := region[:engine.LineSize], region[:64*engine.LineSize], region[:3]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := mallocs(20, func() {
			must(m.ReadAt(64*engine.LineSize, line))
			must(m.WriteAt(64*engine.LineSize, line))
			must(m.ReadAt(100, line[:10]))
			must(m.WriteAt(100, line[:10]))
			must(m.ReadAt(128*engine.LineSize, group))
			must(m.WriteAt(128*engine.LineSize, group))
			must(m.WriteBytes(7, tail))
		}); got != 0 {
			t.Fatalf("GOMAXPROCS=%d: a line, a partial line, a group and a padded line allocate %.1f objects, want 0", procs, got)
		}
		got := mallocs(3, func() {
			must(m.WriteAt(0, region))
			must(m.ReadAt(0, region))
		})
		t.Logf("GOMAXPROCS=%d: 2 MB WriteAt+ReadAt allocates %.1f objects per call pair", procs, got)
		if bound := float64(10*procs + 14); got > bound {
			t.Fatalf("GOMAXPROCS=%d: 2 MB WriteAt+ReadAt allocates %.1f objects, want at most %.0f (two pipes of at most 4·procs+1 chunks and procs−1 helpers)", procs, got, bound)
		}
	}
}
