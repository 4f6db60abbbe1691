package parclock

import (
	"mmt/internal/par"
	"mmt/internal/sim"
)

// Test files are out of scope: an equivalence test may drive a shared
// clock through a worker-count-1 par call to assert byte identity, and
// the analyzer must stay silent here.
func testOnlyCapture(clock *sim.Clock, items []int) error {
	return par.ForEach(1, items, func(_ int, it int) error {
		clock.AdvanceCycles(sim.Cycles(it))
		return nil
	})
}
