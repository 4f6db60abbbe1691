package tree

import (
	"strings"
	"testing"
)

// path is Layout.path as per-level node indices (flat index minus the
// level's base), for the path-arithmetic tests below.
func (g Geometry) path(line int) (nodeIdx, slot []int) {
	ly := g.layout()
	nodeIdx, slot = make([]int, len(ly.Level)), make([]int, len(ly.Level))
	ly.path(line, nodeIdx, slot)
	for l := range nodeIdx {
		nodeIdx[l] -= ly.Level[l].Base
	}
	return nodeIdx, slot
}

// TestTableVGeometry checks the closure ("MMT Size") and SoC root-storage
// numbers of the paper's Table V: for 2 GB of secure memory,
//
//	2-level: 64 KB closures, 256 KB of roots
//	3-level:  2 MB closures,   8 KB of roots
//	4-level: 64 MB closures,  256 B of roots
func TestTableVGeometry(t *testing.T) {
	const secureMemory = 2 << 30
	cases := []struct {
		levels   int
		dataSize int
		rootSoC  int
	}{
		{2, 64 << 10, 256 << 10},
		{3, 2 << 20, 8 << 10},
		{4, 64 << 20, 256},
	}
	for _, c := range cases {
		g := ForLevels(c.levels)
		if got := g.DataSize(); got != c.dataSize {
			t.Errorf("%d-level DataSize = %d, want %d", c.levels, got, c.dataSize)
		}
		trees := secureMemory / g.DataSize()
		if got := trees * g.RootSoCBytes(); got != c.rootSoC {
			t.Errorf("%d-level root storage for 2GB = %d, want %d", c.levels, got, c.rootSoC)
		}
	}
}

func TestForLevelsArities(t *testing.T) {
	g := ForLevels(3)
	want := []int{16, 32, 64}
	for i, a := range want {
		if g.Arities[i] != a {
			t.Fatalf("3-level arities = %v, want %v", g.Arities, want)
		}
	}
	if g1 := ForLevels(1); g1.Arities[0] != 64 {
		t.Fatalf("1-level arity = %v, want [64]", g1.Arities)
	}
}

func TestForLevelsPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ForLevels(0)
}

func TestGeometryValidate(t *testing.T) {
	if err := (Geometry{}).Validate(); err == nil {
		t.Error("empty geometry accepted")
	}
	if err := (Geometry{Arities: []int{1}}).Validate(); err == nil {
		t.Error("arity 1 accepted")
	}
	if err := (Geometry{Arities: []int{4}, LocalBits: 40}).Validate(); err == nil {
		t.Error("40 local bits accepted")
	}
	if err := ForLevels(3).Validate(); err != nil {
		t.Errorf("default geometry rejected: %v", err)
	}
}

// TestGeometryBounds: the products are bounded where they are computed.
// Each rejected shape would alias in nodeID (level in 8 bits, index in 24),
// truncate in the tweak's uint32 line, or overflow int; the accepted ones
// sit exactly on the limits.
func TestGeometryBounds(t *testing.T) {
	twos := func(n int) []int {
		a := make([]int, n)
		for i := range a {
			a[i] = 2
		}
		return a
	}
	for _, c := range []struct {
		name    string
		arities []int
		want    string // substring of the error; "" = accepted
	}{
		{"256 levels", twos(256), "levels >= 256"},
		{"2^24 nodes at a level", []int{1 << 24, 2}, "nodes >= 2^24"},
		{"2^23 nodes at a level", []int{1 << 23, 2}, ""},
		{"2^33 lines", []int{1 << 11, 1 << 11, 1 << 11}, "uint32 line index"},
		{"2^32 lines", []int{1 << 16, 1 << 16}, ""},
		{"product overflows int", []int{1 << 23, 1 << 62}, "overflow int"},
		{"node size overflows int", []int{1 << 62}, "overflow int"},
		{"32 levels of 2", twos(32), "nodes >= 2^24"},
	} {
		err := Geometry{Arities: c.arities}.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestNodeCounts(t *testing.T) {
	g := ForLevels(3) // 16, 32, 64
	ly := g.layout()
	if ly.Level[0].Nodes != 1 || ly.Level[1].Nodes != 16 || ly.Level[2].Nodes != 512 {
		t.Fatalf("node counts: %d %d %d", ly.Level[0].Nodes, ly.Level[1].Nodes, ly.Level[2].Nodes)
	}
	if ly.Nodes != 529 {
		t.Fatalf("Nodes = %d, want 529", ly.Nodes)
	}
	if g.Lines() != 32768 {
		t.Fatalf("Lines = %d, want 32768", g.Lines())
	}
}

func TestMetaSizeFractionReasonable(t *testing.T) {
	// The 3-level closure metadata must stay a modest fraction of the data
	// (the paper's delegation costs ~15% more than a raw remote write).
	g := ForLevels(3)
	frac := float64(g.MetaSize()) / float64(g.DataSize())
	if frac < 0.10 || frac > 0.25 {
		t.Fatalf("meta/data fraction = %.3f, want ~0.10-0.25", frac)
	}
	if g.MetaSize()%LineSize != 0 {
		t.Fatal("MetaSize not line aligned")
	}
}

func TestPathMath(t *testing.T) {
	g := ForLevels(3) // 16, 32, 64 -> 32768 lines
	nodeIdx, slot := g.path(0)
	for l := 0; l < 3; l++ {
		if nodeIdx[l] != 0 || slot[l] != 0 {
			t.Fatalf("path(0) level %d = (%d,%d), want (0,0)", l, nodeIdx[l], slot[l])
		}
	}
	// Last line: every slot is max.
	nodeIdx, slot = g.path(g.Lines() - 1)
	if slot[2] != 63 || slot[1] != 31 || slot[0] != 15 {
		t.Fatalf("path(last) slots = %v", slot)
	}
	if nodeIdx[2] != 511 || nodeIdx[1] != 15 || nodeIdx[0] != 0 {
		t.Fatalf("path(last) nodes = %v", nodeIdx)
	}
	// Line 64 is slot 0 of leaf 1.
	nodeIdx, slot = g.path(64)
	if nodeIdx[2] != 1 || slot[2] != 0 || nodeIdx[1] != 0 || slot[1] != 1 {
		t.Fatalf("path(64) = %v / %v", nodeIdx, slot)
	}
}

func TestPathPanicsOutOfRange(t *testing.T) {
	tr := mustNew(ForLevels(2), testEngine(), guaddr)
	for _, line := range []int{-1, tr.Geometry().Lines()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pathOf(%d): expected panic", line)
				}
			}()
			tr.pathOf(line)
		}()
	}
}

func TestPathConsistentWithLinearIndex(t *testing.T) {
	// Reconstructing the line from (nodeIdx, slot) must round-trip.
	g := Geometry{Arities: []int{3, 4, 5}}
	for line := 0; line < g.Lines(); line++ {
		nodeIdx, slot := g.path(line)
		recon := 0
		for l := 0; l < g.Levels(); l++ {
			recon = recon*g.Arities[l] + slot[l]
		}
		if recon != line {
			t.Fatalf("line %d reconstructed as %d", line, recon)
		}
		// nodeIdx consistency: child node index = parent*arity + slot.
		for l := 1; l < g.Levels(); l++ {
			if nodeIdx[l] != nodeIdx[l-1]*g.Arities[l-1]+slot[l-1] {
				t.Fatalf("line %d level %d node index inconsistent", line, l)
			}
		}
	}
}
