package bench

import (
	"strings"
	"testing"
)

func TestCacheSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("trace sweep in -short mode")
	}
	rows, err := CacheSweep(50_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Overhead > rows[i-1].Overhead {
			t.Errorf("bigger cache (%d) increased overhead: %.3f > %.3f",
				rows[i].CacheBytes, rows[i].Overhead, rows[i-1].Overhead)
		}
		if rows[i].MissRate > rows[i-1].MissRate {
			t.Errorf("bigger cache (%d) increased miss rate", rows[i].CacheBytes)
		}
	}
}

func TestArityAblationStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("trace sweep in -short mode")
	}
	rows, err := ArityAblation(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Wider leaves -> bigger granule, slightly less metadata.
	if rows[0].MMTSize >= rows[1].MMTSize || rows[1].MMTSize >= rows[2].MMTSize {
		t.Error("MMT size not increasing with leaf arity")
	}
	if rows[0].MetaFraction < rows[2].MetaFraction {
		t.Error("metadata fraction should shrink with wider leaves")
	}
	if rows[1].MMTSize != 2<<20 {
		t.Errorf("paper layout granule %d, want 2M", rows[1].MMTSize)
	}
}

func TestCounterWidthAblationShape(t *testing.T) {
	rows, err := CounterWidthAblation(10_000)
	if err != nil {
		t.Fatal(err)
	}
	// Narrower counters overflow more and cost more per write.
	first, last := rows[0], rows[len(rows)-1]
	if first.LocalBits >= last.LocalBits {
		t.Fatal("rows not ordered by width")
	}
	if first.Overflows <= last.Overflows {
		t.Errorf("4-bit counters overflowed %d times vs %d for 16-bit", first.Overflows, last.Overflows)
	}
	if first.CyclesPerWrite <= last.CyclesPerWrite {
		t.Error("overflow storms should cost cycles")
	}
	if last.Overflows != 0 {
		t.Errorf("16-bit counters overflowed %d times in a 10k write storm", last.Overflows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Overflows > rows[i-1].Overflows {
			t.Errorf("overflows not monotone at %d bits", rows[i].LocalBits)
		}
	}
}

func TestLossSweepDeliversEverything(t *testing.T) {
	rows, err := LossSweep(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Delivered != 10 {
			t.Errorf("loss %d%%: delivered %d of 10", r.LossPercent, r.Delivered)
		}
	}
	clean, lossy := rows[0], rows[len(rows)-1]
	if clean.Retries != 0 {
		t.Errorf("clean fabric needed %d retries", clean.Retries)
	}
	if lossy.Retries == 0 {
		t.Error("20% loss needed no retries; dropper inactive?")
	}
	if lossy.GoodputGBps >= clean.GoodputGBps {
		t.Error("goodput should drop with loss")
	}
}

// TestRootTableSweepShape is the §VII mounting trade-off: as the SoC root
// table shrinks under 512 live MMTs, mounts per 1 000 accesses never fall,
// and the smallest table mounts more often than the largest.
func TestRootTableSweepShape(t *testing.T) {
	rows, err := RootTableSweep(2_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].ResidentRoots >= rows[i-1].ResidentRoots || rows[i].RootTableBytes != 8*rows[i].ResidentRoots {
			t.Fatalf("row %d: %d roots in %d B after %d roots", i, rows[i].ResidentRoots, rows[i].RootTableBytes, rows[i-1].ResidentRoots)
		}
		if rows[i].MountsPerKAcc < rows[i-1].MountsPerKAcc {
			t.Errorf("%d resident roots mount %.1f per kacc, fewer than %.1f at %d",
				rows[i].ResidentRoots, rows[i].MountsPerKAcc, rows[i-1].MountsPerKAcc, rows[i-1].ResidentRoots)
		}
	}
	if first, last := rows[0], rows[len(rows)-1]; last.MountsPerKAcc <= first.MountsPerKAcc || last.Overhead <= first.Overhead {
		t.Errorf("a 16x smaller root table cost nothing: %+v vs %+v", last, first)
	}
}

// TestSpecTrace: the ablations find their trace by name, and an unknown
// name is an error rather than a zero TraceConfig run silently.
func TestSpecTrace(t *testing.T) {
	if _, err := specTrace("nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("unknown trace: %v", err)
	}
	cfg, err := specTrace("mcf")
	if err != nil || cfg.Name != "mcf" || cfg.FootprintLines == 0 {
		t.Fatalf("specTrace(mcf) = %+v, %v", cfg, err)
	}
}
