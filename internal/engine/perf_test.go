package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"mmt/internal/crypt"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// TestReadWriteZeroAlloc pins the full protected line path — batched tree
// verify, counter update, key check, line MACs, OTP crypto — at zero heap
// allocations per access once warm: for a single line, for a span over
// three leaf runs, and for the default tree's whole 2 MB region (512 runs
// of 64 lines), with tracing both disabled and enabled, and on the builds
// whose charges take the other paths. The modelled hardware pipeline has
// no allocator; neither may the steady-state software path.
func TestReadWriteZeroAlloc(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			c := testSetup(t)
			if traced {
				c.SetTrace(trace.NewSink().Probe("alloc"))
			}
			lineOpsAllocFree(t, c, 1)

			big, region := range2M(t)
			if traced {
				big.SetTrace(trace.NewSink().Probe("alloc"))
			}
			allocs := testing.AllocsPerRun(3, func() {
				if err := big.ReadRange(0, 0, region); err != nil {
					t.Fatal(err)
				}
				if err := big.WriteRange(0, 0, region); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("2 MB ReadRange+WriteRange allocates %.1f objects/op, want 0", allocs)
			}
		})
	}

	// The builds on which the charge takes its other paths: nothing
	// charged; a node cache that holds nothing, or one node, so every
	// touch misses (and evicts the one resident) and a path never fits,
	// which charges a run's further lines one by one; a one-entry root
	// table that two regions take turns at, remounting a root per access;
	// and a window hook on the clock, which a run crosses.
	lay, err := tree.Geometry{Arities: []int{2, 3, 4}}.Layout()
	if err != nil {
		t.Fatal(err)
	}
	node := 0
	for _, lv := range lay.Level {
		node = max(node, lv.NodeSize)
	}
	tables := func(cacheBytes, rootBytes int) *sim.Profile {
		p := sim.Gem5Profile()
		p.MMTCacheBytes, p.RootTableSoC = cacheBytes, rootBytes
		return p
	}
	for _, b := range []struct {
		name        string
		prof        *sim.Profile
		regions     int
		quiet, hook bool
	}{
		{name: "quiet", prof: sim.Gem5Profile(), regions: 1, quiet: true},
		{name: "no node cache", prof: tables(0, 8<<10), regions: 1},
		{name: "one-node cache", prof: tables(node, 8<<10), regions: 1},
		{name: "one root, two regions", prof: tables(32<<10, rootEntryBytes), regions: 2},
		{name: "window hook", prof: sim.Gem5Profile(), regions: 1, hook: true},
	} {
		t.Run(b.name, func(t *testing.T) {
			c := controllerWith(t, b.prof)
			c.SetQuiet(b.quiet)
			if b.hook {
				windows := 0
				c.Clock().SetWindowHook(64, func(uint64) { windows++ })
				defer func() {
					if windows == 0 {
						t.Fatal("the window hook never fired")
					}
				}()
			}
			lineOpsAllocFree(t, c, b.regions)
		})
	}
}

// lineOpsAllocFree enables the first regions of c, warms them, and fails
// unless ReadInto, Write, ReadRange and WriteRange of a span over three
// leaf runs, and a read and a write Access, allocate nothing, the regions
// taking turns.
func lineOpsAllocFree(t *testing.T, c *Controller, regions int) {
	t.Helper()
	for r := range regions {
		fill(c, r, 1)
		if err := c.Enable(r, testKey, 0x11+uint64(r), 0); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, LineSize)
	// Warm scratch buffers, node cache and root table.
	for r := range regions {
		for i := 0; i < c.lay.Lines; i++ {
			if err := errors.Join(c.ReadInto(r, i, buf), c.Write(r, i, buf)); err != nil {
				t.Fatal(err)
			}
		}
	}
	line, r := 0, 0
	span := make([]byte, 10*LineSize) // lines [2,12) of 4-line leaves: runs [2,4) [4,8) [8,12)
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.ReadInto(r, line, buf); err != nil {
			t.Fatal(err)
		}
		if err := c.Write(r, line, buf); err != nil {
			t.Fatal(err)
		}
		if err := c.ReadRange(r, 2, span); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteRange(r, 2, span); err != nil {
			t.Fatal(err)
		}
		c.Access(r, line, false)
		c.Access(r, line, true)
		line = (line + 1) % c.lay.Lines
		r = (r + 1) % regions
	})
	if allocs != 0 {
		t.Fatalf("Read+Write+ReadRange+WriteRange+Access allocates %.0f objects/op, want 0", allocs)
	}
}

// range2M is a controller over one enabled region of the default 3-level
// tree — 2 MB, 32 768 lines, 64-line leaves — with a region-sized buffer,
// written and read once so that planes, node cache and root table are warm.
func range2M(t testing.TB) (*Controller, []byte) {
	t.Helper()
	geo := tree.ForLevels(3)
	c, err := NewRegions(1, geo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	fill(c, 0, 1)
	region := make([]byte, geo.DataSize())
	if err := errors.Join(c.Enable(0, testKey, 0x11, 0), c.WriteRange(0, 0, region), c.ReadRange(0, 0, region)); err != nil {
		t.Fatal(err)
	}
	return c, region
}

// TestReadIntoMatchesRead: ReadInto, the one single-line read (the
// allocating Controller.Read it was once checked against is gone),
// returns every line's plaintext and the region's mode error.
func TestReadIntoMatchesRead(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 7)
	plain := bytes.Clone(c.Memory().RegionData(0))
	if err := c.Enable(0, testKey, 0x21, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LineSize)
	for line := 0; line < c.lay.Lines; line++ {
		if err := c.ReadInto(0, line, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, plain[line*LineSize:(line+1)*LineSize]) {
			t.Fatalf("line %d: ReadInto differs from the plaintext", line)
		}
	}
	if err := c.ReadInto(1, 0, buf); !errors.Is(err, ErrDisabled) {
		t.Fatalf("disabled region: err = %v, want ErrDisabled", err)
	}
}

// BenchmarkReadLine / BenchmarkWriteLine: steady-state protected access
// cost; both must report 0 allocs/op.
func BenchmarkReadLine(b *testing.B) {
	c := testSetup(b)
	fill(c, 0, 1)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, LineSize)
	if err := c.ReadInto(0, 0, buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReadInto(0, i%c.lay.Lines, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteLine(b *testing.B) {
	c := testSetup(b)
	fill(c, 0, 1)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, LineSize)
	if err := c.Write(0, 0, buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(0, i%c.lay.Lines, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRange2M / BenchmarkWriteRange2M: the range kernels over the
// default tree's whole region, the shape of the benchmark's `bulk`
// workload, reported per line; both must report 0 allocs/op at -cpu 1 and
// a handful per call, never per run, where the span is pipelined.
func BenchmarkReadRange2M(b *testing.B) {
	c, region := range2M(b)
	b.SetBytes(int64(len(region)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReadRange(0, 0, region); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.lay.Lines), "ns/line")
}

func BenchmarkWriteRange2M(b *testing.B) {
	c, region := range2M(b)
	b.SetBytes(int64(len(region)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteRange(0, 0, region); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.lay.Lines), "ns/line")
}

// BenchmarkInstall2M: Install of the default tree's 2 MB closure from
// buffers that are not the region, as a receiver holds them — deserialize,
// VerifyAll, the line-MAC sweep, then the copy sweep. Both sweeps are cut
// per processor, so `make bench` runs it at -cpu 1,2,4.
func BenchmarkInstall2M(b *testing.B) {
	c, _ := range2M(b)
	tb, data, macs, rootCtr, guaddr, err := c.Export(0)
	if err != nil {
		b.Fatal(err)
	}
	data = bytes.Clone(data)
	c.Invalidate(0)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Install(0, testKey, guaddr, rootCtr, tb, data, macs, ModeReadWrite); err != nil {
			b.Fatal(err)
		}
		c.Invalidate(0) // hands the planes back; the adopted MAC slice stays ours
	}
}

// BenchmarkCacheInvalidateRegion measures invalidating one region's nodes
// while many other regions keep the cache full — the migration-path cost
// the per-region residency row exists for: the walk touches only the victim
// region's own keys.
func BenchmarkCacheInvalidateRegion(b *testing.B) {
	const regions, nodesPer = 64, 32
	c := newLRU(regions*nodesPer*16, nodesPer, false)
	for r := 0; r < regions; r++ {
		for i := 0; i < nodesPer; i++ {
			c.touch(r, i, 16)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % regions
		c.invalidateRegion(r)
		for n := 0; n < nodesPer; n++ { // repopulate for the next round
			c.touch(r, n, 16)
		}
	}
}

// BenchmarkCacheInvalidateRegionContended is the multi-region steady state:
// between each invalidation, every other region keeps touching its own
// nodes, so the LRU list is churning and full when the migration-path
// invalidation lands. This is the closest software rendition of many
// enclaves sharing one MMT cache while one of them migrates away.
func BenchmarkCacheInvalidateRegionContended(b *testing.B) {
	const regions, nodesPer = 64, 32
	c := newLRU(regions*nodesPer*16, nodesPer, false)
	for r := 0; r < regions; r++ {
		for i := 0; i < nodesPer; i++ {
			c.touch(r, i, 16)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := i % regions
		// Background traffic: every other region touches a node, keeping
		// the cache full and the recency list interleaved across regions.
		for r := 0; r < regions; r++ {
			if r != victim {
				c.touch(r, i%nodesPer, 16)
			}
		}
		c.invalidateRegion(victim)
		for n := 0; n < nodesPer; n++ { // repopulate for the next round
			c.touch(victim, n, 16)
		}
	}
}

// TestEnableSweeps pins Enable's whole-region sweep to the slow reference
// (every ciphertext line is XORPad of the plaintext, every line MAC is
// LineMAC) at 1, 2 and 4 processors — the sweep is cut into per-processor
// chunks, and 768 lines make twelve 64-line groups to cut — and, on one
// processor, to zero allocations per line: a region 32 times larger costs
// the same number of allocations.
func TestEnableSweeps(t *testing.T) {
	setup := func(arities ...int) *Controller {
		geo := tree.Geometry{Arities: arities}
		c, err := NewRegions(1, geo, nil, sim.Gem5Profile())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cycle := func(c *Controller) func() {
		return func() {
			if err := c.Enable(0, testKey, 0x11, 0); err != nil {
				t.Fatal(err)
			}
			c.Invalidate(0)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ref := crypt.NewEngine(testKey)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []*Controller{setup(2, 3, 4), setup(4, 8, 24)} {
			fill(c, 0, 5)
			plain := append([]byte(nil), c.Memory().RegionData(0)...)
			if err := c.Enable(0, testKey, 0x11, 0); err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				for line := range c.lay.Lines {
					tw := crypt.Tweak{GUAddr: 0x11, Line: uint32(line), Counter: c.Tree(0).LeafCounter(line)}
					want := append([]byte(nil), plain[line*LineSize:(line+1)*LineSize]...)
					ref.XORPad(tw, want)
					ct, mac := c.LineState(0, line)
					if !bytes.Equal(ct, want) || mac != ref.LineMAC(tw, ct) {
						t.Fatalf("GOMAXPROCS=%d, line %d of %d: %s disagrees with XORPad/LineMAC", procs, line, c.lay.Lines, when)
					}
				}
			}
			check("Enable")
			// The planes the sweep filled serve the read path as they are.
			buf := make([]byte, LineSize)
			for line := range c.lay.Lines {
				if err := c.ReadInto(0, line, buf); err != nil || !bytes.Equal(buf, plain[line*LineSize:(line+1)*LineSize]) {
					t.Fatalf("GOMAXPROCS=%d, line %d of %d: read after Enable: %v", procs, line, c.lay.Lines, err)
				}
			}
			// A span that starts mid-leaf and crosses two leaf boundaries:
			// the runs keyRun keys are ragged at both ends.
			leaf := c.lay.Level[len(c.lay.Level)-1].Arity
			first, n := leaf/2, 2*leaf+1
			span := plain[first*LineSize : (first+n)*LineSize]
			for i := range span {
				span[i] ^= 0x5A
			}
			if err := c.WriteRange(0, first, span); err != nil {
				t.Fatal(err)
			}
			check("a ragged WriteRange")
			got := make([]byte, len(span))
			if err := c.ReadRange(0, first, got); err != nil || !bytes.Equal(got, span) {
				t.Fatalf("GOMAXPROCS=%d, %d lines: ragged span read back: %v", procs, c.lay.Lines, err)
			}
			all := make([]byte, len(plain))
			if err := c.ReadRange(0, 0, all); err != nil || !bytes.Equal(all, plain) {
				t.Fatalf("GOMAXPROCS=%d, %d lines: whole-region read: %v", procs, c.lay.Lines, err)
			}
		}
	}

	runtime.GOMAXPROCS(1)
	small := testing.AllocsPerRun(5, cycle(setup(2, 3, 4)))
	big := testing.AllocsPerRun(5, cycle(setup(4, 8, 24))) // 768 lines against 24
	if big != small {
		t.Fatalf("Enable+Invalidate allocates %.0f objects over 24 lines but %.0f over 768, want the same", small, big)
	}

	// Install's line-MAC sweep, called as verifyLineMACs' chunks call it:
	// over the whole region, which passes, and up to a tampered MAC, which
	// it names. It stages in memory its caller owns, so it allocates
	// nothing on either build.
	c := setup(4, 8, 24)
	fill(c, 0, 5)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	st := c.region(0)
	data, bad := c.Memory().RegionData(0), append([]uint64(nil), st.lineMACs...)
	bad[700] ^= 1
	stage := make([]byte, c.lay.Lines*crypt.LineBasesSize)
	if a := testing.AllocsPerRun(5, func() {
		if sweepLineMACs(st.eng, st.tr, st.guaddr, data, st.lineMACs, stage, 0, c.lay.Lines) != -1 ||
			sweepLineMACs(st.eng, st.tr, st.guaddr, data, bad, stage, 0, c.lay.Lines) != 700 {
			t.Fatal("the sweep missed the tampered line MAC or flagged a good one")
		}
	}); a != 0 {
		t.Fatalf("two line-MAC sweeps allocate %.0f objects, want 0", a)
	}
}

// TestOverflowWriteAllocs pins what a write through a counter overflow
// allocates: with 2-bit locals every fourth Write of a line wraps its
// leaf's counters, and the write re-encrypts the leaf's other three lines.
// The list of them that tree.Update returns is the only allocation.
func TestOverflowWriteAllocs(t *testing.T) {
	geo := tree.Geometry{Arities: []int{2, 4}, LocalBits: 2}
	c, err := NewRegions(1, geo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	fill(c, 0, 3)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LineSize)
	got := testing.AllocsPerRun(10, func() {
		for range 4 {
			if err := c.Write(0, 0, buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n := c.Stats().ReencryptedLines; n != 11*3 {
		t.Fatalf("%d lines re-encrypted in 11 rounds of four writes, want 3 per round", n)
	}
	var list []int
	want := testing.AllocsPerRun(10, func() {
		list = nil
		for ln := range 3 {
			list = append(list, ln)
		}
	})
	if got != want {
		t.Fatalf("four writes through one overflow allocate %v objects, want the %v of the re-encryption list", got, want)
	}
}
