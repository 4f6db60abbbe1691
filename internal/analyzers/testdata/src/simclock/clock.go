// Package simclock exercises the simclock analyzer: wall-clock reads and
// unseeded global randomness are banned in internal/ simulation code;
// seeded sources and pure time arithmetic are not.
package simclock

import (
	"math/rand"
	"time"

	"mmt/internal/sim"
)

// wallClock reads and waits on the host clock — both banned.
func wallClock() time.Time {
	time.Sleep(time.Millisecond) // want "time\.Sleep reads the wall clock"
	return time.Now()            // want "time\.Now reads the wall clock"
}

// elapsed measures host time — banned.
func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time\.Since reads the wall clock"
}

// globalRand draws from the process-global, unseeded source — banned.
func globalRand() int {
	return rand.Intn(10) // want "rand\.Intn uses the process-global random source"
}

// seededRand is the sanctioned form: a seeded local source.
func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// pureArithmetic never observes the host: time.Duration math is legal.
func pureArithmetic(n int) time.Duration {
	return time.Duration(n) * time.Millisecond
}

// uncharged moves a clock without booking the cycles to a trace phase;
// only trace.Probe.Charge may call AdvanceCycles.
func uncharged(clk *sim.Clock, n sim.Cycles) {
	clk.AdvanceCycles(n) // want "AdvanceCycles outside trace\.Probe\.Charge"
}

// suppressed shows the escape hatch for a justified exception.
func suppressed() time.Time {
	return time.Now() //mmt:allow simclock: fixture demonstrating suppression
}
