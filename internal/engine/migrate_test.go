package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mmt/internal/crypt"
	"mmt/internal/mem"
	"mmt/internal/sim"
	"mmt/internal/tree"
)

// TestPlaneRecycling: a region enabled on planes another tenant left
// behind — every plane and the validity bitset deliberately poisoned —
// under a different key and address behaves exactly like one enabled on
// fresh planes, and the pool never holds more sets than there are regions.
func TestPlaneRecycling(t *testing.T) {
	c := testSetup(t)
	lines := c.Geometry().Lines()
	keyB := crypt.KeyFromBytes([]byte("second tenant"))

	fill(c, 0, 3)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	for line := 0; line < lines; line++ { // fill every plane with tenant A's pads and masks
		if err := c.Write(0, line, bytes.Repeat([]byte{byte(line)}, mem.LineSize)); err != nil {
			t.Fatal(err)
		}
	}
	c.Invalidate(0)
	if len(c.planePool) != 1 {
		t.Fatalf("pool holds %d sets after one Invalidate, want 1", len(c.planePool))
	}
	p := &c.planePool[0]
	for _, b := range [][]byte{p.bases, p.keys} {
		for i := range b {
			b[i] = 0xA5
		}
	}
	for _, w := range [][]uint64{p.lineCtr, p.lineOK} {
		for i := range w {
			w[i] = ^uint64(0)
		}
	}

	fresh := testSetup(t)
	fill(c, 1, 9)
	fill(fresh, 1, 9)
	plain := slices.Clone(c.Memory().RegionData(1))
	if err := errors.Join(c.Enable(1, keyB, 0x22, 5), fresh.Enable(1, keyB, 0x22, 5)); err != nil {
		t.Fatal(err)
	}
	if len(c.planePool) != 0 {
		t.Fatalf("Enable left %d sets in the pool, want the recycled one taken", len(c.planePool))
	}
	if !bytes.Equal(c.Memory().RegionData(1), fresh.Memory().RegionData(1)) || !slices.Equal(c.regions[1].lineMACs, fresh.regions[1].lineMACs) {
		t.Fatal("ciphertext or line MACs on recycled planes differ from fresh planes")
	}
	for line := 0; line < lines; line++ {
		got, err := readLine(c, 1, line)
		if err != nil || !bytes.Equal(got, plain[line*mem.LineSize:(line+1)*mem.LineSize]) {
			t.Fatalf("line %d on recycled planes: %x, %v", line, got, err)
		}
	}
	// An install recycles too.
	tb, data, macs, rootCtr, guaddr, err := c.Export(1)
	if err != nil {
		t.Fatal(err)
	}
	c.Invalidate(1)
	if err := c.Install(2, keyB, guaddr, rootCtr, tb, data, macs, ModeReadWrite); err != nil {
		t.Fatal(err)
	}
	if got, err := readLine(c, 2, 7); err != nil || !bytes.Equal(got, plain[7*mem.LineSize:8*mem.LineSize]) {
		t.Fatalf("line 7 after install on recycled planes: %x, %v", got, err)
	}
	c.Invalidate(2)

	// Churn: however regions come and go, live plus pooled sets never
	// outnumber the regions.
	regions := c.Memory().Regions()
	for round := 0; round < 3; round++ {
		for r := 0; r < regions; r++ {
			if err := c.Enable(r, testKey, uint64(0x100*round+r+1), 0); err != nil {
				t.Fatal(err)
			}
		}
		if len(c.planePool) != 0 {
			t.Fatalf("round %d: %d sets pooled with every region live", round, len(c.planePool))
		}
		for r := 0; r < regions; r++ {
			c.Invalidate(r)
			c.Invalidate(r) // a second Invalidate of a dead region must not pool anything
			if len(c.planePool) > regions {
				t.Fatalf("pool grew to %d sets over %d regions", len(c.planePool), regions)
			}
		}
		if len(c.planePool) != regions {
			t.Fatalf("round %d: pool holds %d sets, want %d", round, len(c.planePool), regions)
		}
	}
}

// TestLineKeysAfterInstall: on an installed region — no Enable sweep has
// filled the line planes, so every line's record is derived on first touch,
// by whichever path touches it first — read, write, a leaf-counter overflow
// with sibling re-encryption, a span that starts mid-leaf and crosses two
// leaf boundaries (so the runs keyRun keys are ragged at both ends) and a
// whole-region range read agree line by line with the slow reference
// (XORPad, LineMAC).
func TestLineKeysAfterInstall(t *testing.T) {
	geo := tree.Geometry{Arities: []int{4, 4}, LocalBits: 2} // 16 lines; a local counter wraps at its 4th bump
	setup := func() *Controller {
		c, err := NewRegions(1, geo, nil, sim.Gem5Profile())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const guaddr = 0x77
	src, c := setup(), setup()
	fill(src, 0, 3)
	plain := slices.Clone(src.Memory().RegionData(0))
	write := func(c *Controller, line int, seed byte) {
		t.Helper()
		p := plain[line*LineSize : (line+1)*LineSize]
		for i := range p {
			p[i] = seed ^ byte(i)
		}
		if err := c.Write(0, line, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Enable(0, testKey, guaddr, 9); err != nil {
		t.Fatal(err)
	}
	write(src, 1, 0x10) // uneven counters across the leaf
	write(src, 6, 0x20)
	tb, data, macs, rootCtr, _, err := src.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Install(0, testKey, guaddr, rootCtr, tb, data, slices.Clone(macs), ModeReadWrite); err != nil {
		t.Fatal(err)
	}
	// Install's VerifyAll is why the first read below need not MAC a node
	// (tree.TestVerifyAllWarmsEveryPath); that verification is a statement
	// about the bytes it read, and a write to any of them — here on a twin
	// installed from the same closure — ends it: the first read fails.
	{
		tampered := setup()
		if err := tampered.Install(0, testKey, guaddr, rootCtr, tb, data, slices.Clone(macs), ModeReadWrite); err != nil {
			t.Fatal(err)
		}
		n := tampered.Tree(0).Node(1, 0)
		n.SetMAC(n.MAC() ^ 1)
		if _, err := readLine(tampered, 0, 0); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("first read of an installed region whose node MAC was flipped after Install: %v", err)
		}
		n.SetMAC(n.MAC() ^ 1)
		if _, err := readLine(tampered, 0, 0); err != nil {
			t.Fatalf("first read after the flip was undone: %v", err)
		}
	}

	ref := crypt.NewEngine(testKey)
	check := func(when string) {
		t.Helper()
		for line := range c.lay.Lines {
			tw := crypt.Tweak{GUAddr: guaddr, Line: uint32(line), Counter: c.Tree(0).LeafCounter(line)}
			want := slices.Clone(plain[line*LineSize : (line+1)*LineSize])
			ref.XORPad(tw, want)
			if ct, mac := c.LineState(0, line); !bytes.Equal(ct, want) || mac != ref.LineMAC(tw, ct) {
				t.Fatalf("%s: line %d disagrees with XORPad/LineMAC", when, line)
			}
		}
	}
	read := func(when string, line int) {
		t.Helper()
		if got, err := readLine(c, 0, line); err != nil || !bytes.Equal(got, plain[line*LineSize:(line+1)*LineSize]) {
			t.Fatalf("%s: line %d reads %x, %v", when, line, got, err)
		}
	}

	// Leaf 0 holds lines 0-3: line 0 is first touched by a read, line 2 by
	// a write, line 3 by the overflow's re-encryption, and line 1 drives
	// the overflow. Lines 4-9 are first touched by the ragged span, read
	// then written; lines 10-15 stay untouched until the closing
	// whole-region read.
	read("first read", 0)
	read("re-read", 0)
	write(c, 2, 0x30)
	read("read after write", 2)
	check("after first touches")
	for n := 0; c.Stats().ReencryptedLines == 0; n++ {
		if n == 8 {
			t.Fatal("no leaf-counter overflow within 8 writes of one line at LocalBits 2")
		}
		write(c, 1, 0x40+byte(n))
	}
	if got := c.Stats().ReencryptedLines; got != 3 {
		t.Fatalf("overflow re-encrypted %d sibling lines, want 3", got)
	}
	check("after overflow")
	for line := 0; line < 4; line++ { // leaf 0; the other leaves are still untouched
		read("after overflow", line)
	}
	const first, n = 2, 8 // runs [2,4) [4,8) [8,10)
	span := plain[first*LineSize : (first+n)*LineSize]
	got := make([]byte, len(span))
	if err := c.ReadRange(0, first, got); err != nil || !bytes.Equal(got, span) {
		t.Fatalf("ragged span, first touch by a range read: %v", err)
	}
	for i := range span {
		span[i] ^= 0x5A
	}
	if err := c.WriteRange(0, first, span); err != nil {
		t.Fatal(err)
	}
	check("after the ragged span write")
	if err := c.ReadRange(0, first, got); err != nil || !bytes.Equal(got, span) {
		t.Fatalf("ragged span read back: %v", err)
	}
	all := make([]byte, len(plain))
	if err := c.ReadRange(0, 0, all); err != nil || !bytes.Equal(all, plain) {
		t.Fatalf("whole-region read: %v", err)
	}
}

// TestInstallSweepDeterminism: with two lines tampered — in different
// chunks of the sweep, inside one 64-line batch of masks, either side of a
// batch boundary, either side of a worker-chunk boundary — Install names
// the lower one, installs nothing and leaves the region disabled and the
// plane pool as it was, at every processor count: what the serial
// line-by-line loop reports. A clean closure, at every processor count,
// leaves the region byte-equal to the closure's data — also when that data
// is the region itself.
func TestInstallSweepDeterminism(t *testing.T) {
	// 768 lines: twelve 64-line groups, so the sweep really is cut, into
	// six chunks of 128 lines at GOMAXPROCS 2 and twelve of 64 at 4.
	installSweepDeterminism(t, tree.Geometry{Arities: []int{4, 8, 24}})
	// 800 lines: twelve groups and a half, so the last chunk, [768, 800),
	// is short and its group ragged.
	installSweepDeterminism(t, tree.Geometry{Arities: []int{4, 8, 25}})
}

func installSweepDeterminism(t *testing.T, geo tree.Geometry) {
	c, err := NewRegions(2, geo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	lines := c.Geometry().Lines()
	fill(c, 0, 5)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	tb, data, macs, rootCtr, guaddr, err := c.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(c.Memory().RegionData(1))
	// A closure whose tree bytes were touched never reaches the line sweep:
	// Install's VerifyAll — the node MAC work the installed region's first
	// accesses then need not repeat — names the node.
	badTree := slices.Clone(tb)
	badTree[len(badTree)-1] ^= 1 // the last leaf's MAC
	if err, want := c.Install(1, testKey, guaddr, rootCtr, badTree, data, macs, ModeReadWrite), fmt.Sprintf("%v: node level 2 index %d", ErrIntegrity, c.lay.Level[2].Nodes-1); !errors.Is(err, ErrIntegrity) || err.Error() != want || c.Mode(1) != ModeDisabled {
		t.Fatalf("closure with a flipped node MAC: err %v (want %q), region 1 %v", err, want, c.Mode(1))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	half := (lines + 63) / 64 / 2 * 64 // where two workers, and four, cut the groups
	for _, tc := range []struct {
		name string
		i, j int
	}{
		{"different chunks", lines/4 + 1, lines - 2}, // second and last quarter; different halves
		{"one batch", 130, 140},
		{"batch boundary", 127, 128},
		{"chunk boundary", half - 1, half},
	} {
		bad := slices.Clone(data)
		bad[tc.i*mem.LineSize] ^= 1
		bad[tc.j*mem.LineSize+9] ^= 0x80
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			pooled := len(c.planePool)
			err := c.Install(1, testKey, guaddr, rootCtr, tb, bad, macs, ModeReadWrite)
			want := fmt.Sprintf("transferred data line %d", tc.i)
			if !errors.Is(err, ErrIntegrity) || err.Error() != fmt.Sprintf("%v: %s", ErrIntegrity, want) {
				t.Fatalf("%s, GOMAXPROCS=%d: err %v, want ErrIntegrity naming %q", tc.name, procs, err, want)
			}
			if c.Mode(1) != ModeDisabled {
				t.Fatalf("%s, GOMAXPROCS=%d: rejected install left region 1 %v", tc.name, procs, c.Mode(1))
			}
			if len(c.planePool) != pooled || !bytes.Equal(c.Memory().RegionData(1), before) {
				t.Fatalf("%s, GOMAXPROCS=%d: rejected install took a plane set (%d -> %d pooled) or wrote the region", tc.name, procs, pooled, len(c.planePool))
			}
			if err := c.Install(1, testKey, guaddr, rootCtr, tb, data, macs, ModeReadOnly); err != nil {
				t.Fatalf("%s, GOMAXPROCS=%d: clean closure rejected: %v", tc.name, procs, err)
			}
			if !bytes.Equal(c.Memory().RegionData(1), data) {
				t.Fatalf("%s, GOMAXPROCS=%d: installed region differs from the closure's data", tc.name, procs)
			}
			c.Invalidate(1)
			copy(c.Memory().RegionData(1), before)
		}
	}
	// The exact alias: a region exported, invalidated and installed onto
	// itself, so the copy sweep's source is its destination.
	want := slices.Clone(data)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		tb, data, macs, rootCtr, guaddr, err := c.Export(0)
		if err != nil {
			t.Fatal(err)
		}
		c.Invalidate(0)
		if err := c.Install(0, testKey, guaddr, rootCtr, tb, data, macs, ModeReadWrite); err != nil {
			t.Fatalf("GOMAXPROCS=%d: region installed onto itself: %v", procs, err)
		}
		if !bytes.Equal(c.Memory().RegionData(0), want) {
			t.Fatalf("GOMAXPROCS=%d: region installed onto itself changed its bytes", procs)
		}
		if _, err := readLine(c, 0, lines-1); err != nil {
			t.Fatalf("GOMAXPROCS=%d: last line after the self-install: %v", procs, err)
		}
	}
}

// TestInstallDoesNotShareLivePlane: Export lends region 0's MAC plane and
// Install adopts the slice it is given — piping one into the other on the
// same controller must still leave two regions with a plane each.
func TestInstallDoesNotShareLivePlane(t *testing.T) {
	c := testSetup(t)
	fill(c, 0, 7)
	if err := c.Enable(0, testKey, 0x11, 0); err != nil {
		t.Fatal(err)
	}
	tb, data, macs, rootCtr, guaddr, err := c.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Install(1, testKey, guaddr, rootCtr, tb, data, macs, ModeReadWrite); err != nil {
		t.Fatal(err)
	}
	if &c.regions[0].lineMACs[0] == &c.regions[1].lineMACs[0] {
		t.Fatal("regions 0 and 1 share one line-MAC plane")
	}
	// A write to either region re-MACs its line; the other still verifies.
	line := make([]byte, mem.LineSize)
	line[0] = 0xAB
	if err := c.Write(0, 3, line); err != nil {
		t.Fatal(err)
	}
	if _, err := readLine(c, 1, 3); err != nil {
		t.Fatalf("region 1 line 3 after a write to region 0: %v", err)
	}
	// Once the lender is gone the loan is the only reference, and Install
	// adopts it without a copy.
	tb, data, macs, rootCtr, guaddr, err = c.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	c.Invalidate(1)
	c.Invalidate(0)
	if err := c.Install(1, testKey, guaddr, rootCtr, tb, data, macs, ModeReadWrite); err != nil {
		t.Fatal(err)
	}
	if &c.regions[1].lineMACs[0] != &macs[0] {
		t.Fatal("Install copied a plane no live region holds")
	}
}
