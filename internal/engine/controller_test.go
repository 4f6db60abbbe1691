package engine

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"mmt/internal/crypt"
	"mmt/internal/mem"
	"mmt/internal/sim"
	"mmt/internal/tree"
)

// testSetup builds a controller over a small geometry: 2*3*4 = 24 lines
// (1536 B regions), 4 regions.
func testSetup(t testing.TB) *Controller {
	t.Helper()
	geo := tree.Geometry{Arities: []int{2, 3, 4}}
	c, err := NewRegions(4, geo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var testKey = crypt.KeyFromBytes([]byte("engine-test"))

func fill(c *Controller, r int, seed byte) {
	data := c.Memory().RegionData(r)
	for i := range data {
		data[i] = seed + byte(i%251)
	}
}

// readLine is ReadInto into a fresh buffer.
func readLine(c *Controller, r, line int) ([]byte, error) {
	out := make([]byte, LineSize)
	if err := c.ReadInto(r, line, out); err != nil {
		return nil, err
	}
	return out, nil
}

func TestNewValidatesGeometryAgainstMemory(t *testing.T) {
	geo := tree.ForLevels(2) // 64 KB regions
	m := mem.New(mem.Config{Size: 1 << 20, RegionSize: 128 << 10, MetaPerRegion: 16 << 10})
	if _, err := New(m, geo, nil, sim.Gem5Profile()); err == nil {
		t.Fatal("mismatched region size accepted")
	}
	m2 := mem.New(mem.Config{Size: 1 << 20, RegionSize: geo.DataSize(), MetaPerRegion: 64})
	if _, err := New(m2, geo, nil, sim.Gem5Profile()); err == nil {
		t.Fatal("undersized meta-zone accepted")
	}
	if _, err := NewRegions(1, tree.Geometry{Arities: []int{1}}, nil, sim.Gem5Profile()); err == nil {
		t.Fatal("NewRegions laid memory out for a geometry Layout refuses")
	}
	c, err := NewRegions(0, geo, nil, sim.Gem5Profile())
	if err != nil || c.Memory().Regions() != 1 || c.Memory().Config().MetaPerRegion != geo.MetaSize() {
		t.Fatalf("NewRegions(0): %v; want one region with a %d B meta-zone", err, geo.MetaSize())
	}
}

func TestEnableEncryptsInPlace(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 1)
	plain := append([]byte(nil), c.Memory().RegionData(0)...)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c.Memory().RegionData(0), plain) {
		t.Fatal("region not encrypted after Enable")
	}
	if c.Mode(0) != ModeReadWrite {
		t.Fatalf("mode %v after Enable, want read-write", c.Mode(0))
	}
	// Reads decrypt back to the original plaintext.
	for line := 0; line < c.Geometry().Lines(); line++ {
		got, err := readLine(c, 0, line)
		if err != nil {
			t.Fatalf("read line %d: %v", line, err)
		}
		if !bytes.Equal(got, plain[line*mem.LineSize:(line+1)*mem.LineSize]) {
			t.Fatalf("line %d decrypts wrong", line)
		}
	}
}

func TestEnableTwiceFails(t *testing.T) {
	c := testSetup(t)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Enable(0, testKey, 0x12, 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("second Enable: %v, want ErrBusy", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := testSetup(t)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte{0x5C}, mem.LineSize)
	if err := c.Write(0, 7, line); err != nil {
		t.Fatal(err)
	}
	got, err := readLine(c, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line) {
		t.Fatal("write/read round trip failed")
	}
	if c.RootCounter(0) != 1 {
		t.Fatalf("root counter = %d, want 1", c.RootCounter(0))
	}
}

func TestDisabledRegionRejectsAccess(t *testing.T) {
	c := testSetup(t)
	if _, err := readLine(c, 0, 0); !errors.Is(err, ErrDisabled) {
		t.Fatalf("Read on disabled region: %v", err)
	}
	if err := c.Write(0, 0, make([]byte, mem.LineSize)); !errors.Is(err, ErrDisabled) {
		t.Fatalf("Write on disabled region: %v", err)
	}
	if err := c.SetMode(0, ModeReadOnly); !errors.Is(err, ErrDisabled) {
		t.Fatalf("SetMode on disabled region: %v", err)
	}
	if _, _, _, _, _, err := c.Export(0); !errors.Is(err, ErrDisabled) {
		t.Fatalf("Export on disabled region: %v", err)
	}
}

func TestReadOnlyModeRejectsWrites(t *testing.T) {
	c := testSetup(t)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMode(0, ModeReadOnly); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, 0, make([]byte, mem.LineSize)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write in read-only mode: %v, want ErrReadOnly", err)
	}
	if _, err := readLine(c, 0, 0); err != nil {
		t.Fatalf("Read in read-only mode failed: %v", err)
	}
}

func TestPhysicalTamperOnDataDetected(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 3)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	// Off-chip attacker flips a bit in DRAM (raw write, no checks).
	c.Memory().Write(5, []byte{c.Memory().Read(5, 1)[0] ^ 1})
	if _, err := readLine(c, 0, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered data read: %v, want integrity failure", err)
	}
}

func TestPhysicalReplayOnDataDetected(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 3)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	// Attacker snapshots line 0's ciphertext, waits for a legitimate
	// update, then restores the stale ciphertext.
	stale := c.Memory().Read(0, mem.LineSize)
	if err := c.Write(0, 0, bytes.Repeat([]byte{9}, mem.LineSize)); err != nil {
		t.Fatal(err)
	}
	c.Memory().Write(0, stale)
	if _, err := readLine(c, 0, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("replayed stale line read: %v, want integrity failure", err)
	}
}

func TestMetaZoneTamperDetected(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 3)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, 1, bytes.Repeat([]byte{7}, mem.LineSize)); err != nil {
		t.Fatal(err)
	}
	c.FlushMeta(0)
	// Attacker rewrites a counter in the meta-zone.
	meta := c.Memory().MetaRegion(0)
	meta[8]++ // first node's first local counter
	if err := c.LoadMeta(0); err != nil {
		t.Fatal(err)
	}
	if _, err := readLine(c, 0, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered meta read: %v, want integrity failure", err)
	}
}

func TestMetaZoneRoundTripVerifies(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 4)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, 2, bytes.Repeat([]byte{8}, mem.LineSize)); err != nil {
		t.Fatal(err)
	}
	c.FlushMeta(0)
	if err := c.LoadMeta(0); err != nil {
		t.Fatal(err)
	}
	for line := 0; line < c.Geometry().Lines(); line++ {
		if _, err := readLine(c, 0, line); err != nil {
			t.Fatalf("read after meta round trip, line %d: %v", line, err)
		}
	}
}

// TestLoadMetaMarksEverythingDirty: LoadMeta replaces the tree and every
// line MAC, so a checkpoint taken after it must stream (and re-hash) all
// of them — not commit a state its own delta log cannot replay to.
func TestLoadMetaMarksEverythingDirty(t *testing.T) {
	c := testSetup(t)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	c.ClearRegionDirty(0)
	if c.RegionDirty(0) {
		t.Fatal("region dirty right after ClearRegionDirty")
	}
	c.FlushMeta(0)
	if err := c.LoadMeta(0); err != nil {
		t.Fatal(err)
	}
	if !c.RegionDirty(0) {
		t.Fatal("LoadMeta left the region clean")
	}
	nodes, lines := 0, 0
	c.Tree(0).DirtyNodes(func(int, int) { nodes++ })
	c.DirtyLines(0, func(int) { lines++ })
	if nodes != c.lay.Nodes || lines != c.lay.Lines {
		t.Fatalf("after LoadMeta %d of %d nodes and %d of %d lines are dirty; want all",
			nodes, c.lay.Nodes, lines, c.lay.Lines)
	}
}

func TestExportInstallRoundTrip(t *testing.T) {
	// Local migration: export region 0, install into region 1 of the same
	// controller (the cross-node path goes through core/netsim).
	c := testSetup(t)
	fill(c, 0, 5)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	want0, err := readLine(c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb, data, macs, rootCtr, guaddr, err := c.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Install(1, testKey, guaddr, rootCtr, tb, data, macs, ModeReadWrite); err != nil {
		t.Fatal(err)
	}
	got, err := readLine(c, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want0) {
		t.Fatal("installed region decrypts differently")
	}
	// The installed region is writable and stays consistent.
	if err := c.Write(1, 0, bytes.Repeat([]byte{1}, mem.LineSize)); err != nil {
		t.Fatal(err)
	}
}

func TestInstallRejectsTamperedData(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 5)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	tb, data, macs, rootCtr, guaddr, err := c.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(tb, data []byte, macs []uint64)) error {
		tb2 := append([]byte(nil), tb...)
		d2 := append([]byte(nil), data...)
		m2 := append([]uint64(nil), macs...)
		f(tb2, d2, m2)
		return c.Install(1, testKey, guaddr, rootCtr, tb2, d2, m2, ModeReadWrite)
	}
	if err := mutate(func(_, d []byte, _ []uint64) { d[0] ^= 1 }); !errors.Is(err, ErrIntegrity) {
		t.Errorf("tampered data accepted: %v", err)
	}
	if err := mutate(func(tb, _ []byte, _ []uint64) { tb[8]++ }); !errors.Is(err, ErrIntegrity) {
		t.Errorf("tampered tree accepted: %v", err)
	}
	if err := mutate(func(_, _ []byte, m []uint64) { m[0] ^= 1 }); !errors.Is(err, ErrIntegrity) {
		t.Errorf("tampered line MAC accepted: %v", err)
	}
	if err := c.Install(1, testKey, guaddr, rootCtr+1, tb, data, macs, ModeReadWrite); !errors.Is(err, ErrIntegrity) {
		t.Errorf("wrong root counter accepted: %v", err)
	}
	if err := c.Install(1, crypt.KeyFromBytes([]byte("wrong")), guaddr, rootCtr, tb, data, macs, ModeReadWrite); !errors.Is(err, ErrIntegrity) {
		t.Errorf("wrong key accepted: %v", err)
	}
	if err := c.Install(1, testKey, guaddr+1, rootCtr, tb, data, macs, ModeReadWrite); !errors.Is(err, ErrIntegrity) {
		t.Errorf("wrong address accepted: %v", err)
	}
}

func TestInstallRejectsMalformed(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 5)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	tb, data, macs, rootCtr, guaddr, err := c.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Install(1, testKey, guaddr, rootCtr, tb, data[:10], macs, ModeReadWrite); err == nil {
		t.Error("short data accepted")
	}
	if err := c.Install(1, testKey, guaddr, rootCtr, tb[:4], data, macs, ModeReadWrite); err == nil {
		t.Error("short tree accepted")
	}
	if err := c.Install(1, testKey, guaddr, rootCtr, tb, data, macs[:1], ModeReadWrite); err == nil {
		t.Error("short MACs accepted")
	}
	if err := c.Install(1, testKey, guaddr, rootCtr, tb, data, macs, ModeDisabled); err == nil {
		t.Error("disabled install mode accepted")
	}
	if err := c.Enable(1, testKey, 0x99, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Install(1, testKey, guaddr, rootCtr, tb, data, macs, ModeReadWrite); !errors.Is(err, ErrBusy) {
		t.Errorf("install over live MMT: %v, want ErrBusy", err)
	}
}

func TestInvalidateLeavesCiphertext(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 6)
	plain := append([]byte(nil), c.Memory().RegionData(0)...)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(0)
	if c.Mode(0) != ModeDisabled {
		t.Fatal("mode not disabled after Invalidate")
	}
	if bytes.Equal(c.Memory().RegionData(0), plain) {
		t.Fatal("Invalidate should leave ciphertext, not plaintext")
	}
}

func TestCounterOverflowEndToEnd(t *testing.T) {
	// Small local counters force overflow; data must stay readable.
	geo := tree.Geometry{Arities: []int{2, 4}, LocalBits: 2}
	c, err := NewRegions(2, geo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	fill(c, 0, 7)
	want := append([]byte(nil), c.Memory().RegionData(0)...)
	if err := c.Enable(0, testKey, 0x22, 0); err != nil {
		t.Fatal(err)
	}
	// Hammer line 0 to wrap its local counter several times.
	for i := 0; i < 20; i++ {
		if err := c.Write(0, 0, want[:mem.LineSize]); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if c.Stats().ReencryptedLines == 0 {
		t.Fatal("no overflow re-encryption happened; test is vacuous")
	}
	for line := 0; line < geo.Lines(); line++ {
		got, err := readLine(c, 0, line)
		if err != nil {
			t.Fatalf("read line %d after overflow: %v", line, err)
		}
		if !bytes.Equal(got, want[line*mem.LineSize:(line+1)*mem.LineSize]) {
			t.Fatalf("line %d corrupted after overflow", line)
		}
	}
}

func TestStatsAndCycleAccounting(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 8)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	before := c.Clock().Now()
	if _, err := readLine(c, 0, 0); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Reads != 1 || s.DataAccesses != 1 {
		t.Fatalf("stats after one read: %+v", s)
	}
	if s.NodeMisses == 0 {
		t.Fatal("first read should miss the node cache")
	}
	if c.Clock().Now() <= before {
		t.Fatal("read did not advance the clock")
	}
	// Second read of the same line hits the cache and is cheaper.
	costFirst := s.Cycles
	if _, err := readLine(c, 0, 0); err != nil {
		t.Fatal(err)
	}
	s2 := c.Stats()
	if s2.NodeHits == 0 {
		t.Fatal("second read should hit the node cache")
	}
	if s2.Cycles-costFirst >= costFirst {
		t.Fatalf("cached read (%v cycles) not cheaper than cold read (%v)", s2.Cycles-costFirst, costFirst)
	}
}

func TestAccessTimingPath(t *testing.T) {
	c := testSetup(t)
	c.ResetStats()
	c.Access(0, 0, false)
	c.Access(0, 0, true)
	s := c.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.DataAccesses != 2 {
		t.Fatalf("timing access stats: %+v", s)
	}
}

func TestModeString(t *testing.T) {
	if ModeDisabled.String() != "disabled" || ModeReadWrite.String() != "read-write" || ModeReadOnly.String() != "read-only" {
		t.Fatal("Mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should print")
	}
}

// testProfileWithRoots clones the Gem5 profile with a given SoC root-table
// size.
func testProfileWithRoots(t *testing.T, bytes int) *sim.Profile {
	t.Helper()
	p := sim.Gem5Profile()
	p.RootTableSoC = bytes
	return p
}

// controllerWith builds the small-geometry test controller over a profile.
func controllerWith(t *testing.T, prof *sim.Profile) *Controller {
	t.Helper()
	geo := tree.Geometry{Arities: []int{2, 3, 4}}
	c, err := NewRegions(4, geo, nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRandomOpSequenceProperty drives random read/write sequences against
// a shadow model (a plain byte slice) and checks the protected memory
// always agrees — the engine's fundamental storage contract.
func TestRandomOpSequenceProperty(t *testing.T) {
	f := func(ops []uint16, seed byte) bool {
		geo := tree.Geometry{Arities: []int{2, 3, 4}, LocalBits: 3} // overflow often
		c, err := NewRegions(1, geo, nil, sim.Gem5Profile())
		if err != nil {
			t.Fatal(err)
		}
		fill(c, 0, seed)
		shadow := append([]byte(nil), c.Memory().RegionData(0)...)
		if err := c.Enable(0, testKey, uint64(seed)+1, 0); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			line := int(op) % geo.Lines()
			if op&0x8000 != 0 { // write
				buf := bytes.Repeat([]byte{byte(op)}, mem.LineSize)
				if err := c.Write(0, line, buf); err != nil {
					return false
				}
				copy(shadow[line*mem.LineSize:], buf)
			} else { // read
				got, err := readLine(c, 0, line)
				if err != nil {
					return false
				}
				if !bytes.Equal(got, shadow[line*mem.LineSize:(line+1)*mem.LineSize]) {
					return false
				}
			}
		}
		// Full sweep at the end.
		for line := 0; line < geo.Lines(); line++ {
			got, err := readLine(c, 0, line)
			if err != nil || !bytes.Equal(got, shadow[line*mem.LineSize:(line+1)*mem.LineSize]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestExportInstallPreservesEveryLineProperty: migrating a randomly
// mutated region must preserve every line exactly.
func TestExportInstallPreservesEveryLineProperty(t *testing.T) {
	f := func(writes []uint8) bool {
		c := testSetup(t)
		fill(c, 0, 9)
		if err := c.Enable(0, testKey, 0x77, 0); err != nil {
			t.Fatal(err)
		}
		for _, w := range writes {
			line := int(w) % c.Geometry().Lines()
			if err := c.Write(0, line, bytes.Repeat([]byte{w}, mem.LineSize)); err != nil {
				return false
			}
		}
		var want [][]byte
		for line := 0; line < c.Geometry().Lines(); line++ {
			got, err := readLine(c, 0, line)
			if err != nil {
				return false
			}
			want = append(want, got)
		}
		tb, data, macs, rootCtr, guaddr, err := c.Export(0)
		if err != nil {
			return false
		}
		if err := c.Install(1, testKey, guaddr, rootCtr, tb, data, macs, ModeReadWrite); err != nil {
			return false
		}
		for line := 0; line < c.Geometry().Lines(); line++ {
			got, err := readLine(c, 1, line)
			if err != nil || !bytes.Equal(got, want[line]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
