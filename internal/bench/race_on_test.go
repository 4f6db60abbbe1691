//go:build race

package bench

// raceEnabled reports whether this test binary was built with -race.
// The Intel half of Table IV (32-128 MB of functional encryption and tree
// verification) runs ~10x slower under the race detector, so the doc check
// skips that one experiment when this is set; the Gem5 half runs the same
// code path at 2K-2M, race-instrumented.
const raceEnabled = true
