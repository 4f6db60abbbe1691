package bench

import (
	"strings"
	"testing"
)

// The ablation and extension experiments each state the claims of several
// sweeps; these tests name each sweep's claims, from the same single run
// that TestExperimentsDoc checks.

func TestCacheSweepMonotone(t *testing.T) {
	requireClaims(t, "ablation", "Overhead never rises as the cache grows", "Miss rate never rises as the cache grows")
}

func TestArityAblationStructure(t *testing.T) {
	requireClaims(t, "ablation", "MMT size rises with leaf arity", "Meta overhead at leaf-128 <= leaf-32", "leaf-64 MMT size is 2M")
}

func TestCounterWidthAblationShape(t *testing.T) {
	requireClaims(t, "extension", "4-bit counters overflow more than 16-bit", "4-bit Cycles/write above 16-bit",
		"16-bit counters never overflow", "Overflows never rise with width")
}

func TestLossSweepDeliversEverything(t *testing.T) {
	requireClaims(t, "extension", "All 30 messages delivered at every loss rate", "No retries at 0% loss",
		"Retries at 20% loss", "Goodput lower at 20% loss than at 0%")
}

// TestRootTableSweepShape is the §VII mounting trade-off: as the SoC root
// table shrinks under 512 live MMTs, mounts per 1 000 accesses never fall,
// and the smallest table mounts and costs more than the largest.
func TestRootTableSweepShape(t *testing.T) {
	requireClaims(t, "extension", "Five tables, roots falling, 8 B per root", "Mounts/kacc never fall as the table shrinks",
		"512B table mounts and costs more than 8K")
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
