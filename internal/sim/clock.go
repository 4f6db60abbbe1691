package sim

import "fmt"

// Cycles counts simulated processor cycles. It is a float so that
// per-byte cost curves can be fractional; totals are rounded only when
// displayed.
type Cycles float64

// Time is a simulated wall-clock instant or duration in seconds.
type Time float64

// Milliseconds reports t in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) * 1e3 }

// Microseconds reports t in microseconds.
func (t Time) Microseconds() float64 { return float64(t) * 1e6 }

func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t < 1e-6:
		return fmt.Sprintf("%.1fns", float64(t)*1e9)
	case t < 1e-3:
		return fmt.Sprintf("%.2fus", float64(t)*1e6)
	case t < 1:
		return fmt.Sprintf("%.3fms", float64(t)*1e3)
	default:
		return fmt.Sprintf("%.3fs", float64(t))
	}
}

// Clock is a simulated per-node clock. It counts cycles, as Gem5's clock
// counts ticks, so a charge is one add and charging the parts of a cost
// equals charging their sum whenever the parts are dyadic rationals (every
// engine constant is); seconds are derived only at the edges (Now, SyncTo,
// SetNow). The zero value is a clock at time zero; it is not safe for
// concurrent use (simulated nodes are single-threaded, as in the paper's
// Gem5 model).
type Clock struct {
	now  Cycles
	freq float64 // cycles per second; 0 means unset (use DefaultFreqHz)

	// Window sampling hook. When winHook is non-nil, every forward move
	// of the clock checks whether it crossed into a new window of
	// 2^winShift cycles and, if so, fires the hook once with the new
	// window index. The hook must not advance this clock.
	winShift uint
	winHook  func(window uint64)
	lastWin  uint64
}

// DefaultFreqHz is the processor frequency of the paper's Gem5
// configuration (Table II: 2.0 GHz).
const DefaultFreqHz = 2e9

// NewClock returns a clock ticking at freqHz cycles per second.
func NewClock(freqHz float64) *Clock {
	if freqHz <= 0 {
		freqHz = DefaultFreqHz
	}
	return &Clock{freq: freqHz}
}

// Freq reports the clock frequency in Hz.
func (c *Clock) Freq() float64 {
	if c.freq == 0 {
		return DefaultFreqHz
	}
	return c.freq
}

// Now reports the current simulated time.
func (c *Clock) Now() Time { return Time(float64(c.now) / c.Freq()) }

// NowCycles reports the current simulated time expressed in cycles.
func (c *Clock) NowCycles() Cycles { return c.now }

// cyclesAt converts the instant t to this clock's cycle count.
func (c *Clock) cyclesAt(t Time) Cycles { return Cycles(float64(t) * c.Freq()) }

// AdvanceCycles moves the clock forward by n cycles; n <= 0 is ignored so
// that cost arithmetic can never move time backwards. Outside tests its
// one caller is trace.Probe.Charge, which books the same n to a phase, so
// a machine's phases add up to its clock (TestPhaseCyclesSumToClock).
func (c *Clock) AdvanceCycles(n Cycles) {
	if n > 0 {
		c.now += n
		if c.winHook != nil {
			c.windowTick()
		}
	}
}

// Crosses reports whether advancing by n cycles would fire the window
// hook, i.e. whether a sampling window boundary falls inside the next n
// cycles. It is false when no hook is installed.
func (c *Clock) Crosses(n Cycles) bool {
	return c.winHook != nil && c.window(c.now+n) > c.lastWin
}

// SyncTo moves the clock forward to t if t is later than the current time.
// It models a blocking receive: the receiver cannot observe a message
// before the (simulated) instant it arrives.
func (c *Clock) SyncTo(t Time) {
	if n := c.cyclesAt(t); n > c.now {
		c.now = n
		if c.winHook != nil {
			c.windowTick()
		}
	}
}

// Reset rewinds the clock to time zero. Benchmarks use it between trials.
// The sampling window position rewinds with it; the hook does not fire.
func (c *Clock) Reset() {
	c.now = 0
	c.lastWin = 0
}

// SetNow forces the clock to an absolute instant. Snapshot recovery uses
// it to resume a reloaded node at exactly its saved simulated time:
// SetNow(Now()) leaves Now() unchanged, though the cycle count underneath
// may differ from the saved one in its last bit.
func (c *Clock) SetNow(t Time) {
	n := c.cyclesAt(t)
	forward := n > c.now
	c.now = n
	if forward && c.winHook != nil {
		c.windowTick()
	} else if !forward {
		// A rewind repositions the window cursor silently so a later
		// forward move does not re-announce windows already sampled.
		c.lastWin = c.window(c.now)
	}
}

// SetWindowHook installs a sampling hook that fires whenever the clock
// crosses into a new window of windowCycles simulated cycles. The window
// size must be a power of two (callers pass a sink's SeriesConfigured
// window, and trace.Sink.EnableSeries refuses any other); other values are
// rounded up to the next power of two so the window index stays a shift.
// A nil hook uninstalls sampling.
func (c *Clock) SetWindowHook(windowCycles uint64, hook func(window uint64)) {
	if hook == nil {
		c.winHook = nil
		return
	}
	shift := uint(0)
	for windowCycles > 1<<shift {
		shift++
	}
	c.winShift = shift
	c.winHook = hook
	c.lastWin = c.window(c.now)
}

// window reports the window index of the instant n cycles after zero.
func (c *Clock) window(n Cycles) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(n) >> c.winShift
}

// windowTick fires the sampling hook if the last forward move crossed a
// window boundary. It is the one dynamic call on the clock-advance path,
// kept out of line so that advancing a clock with no hook stays a nil
// check.
func (c *Clock) windowTick() {
	w := c.window(c.now)
	if w > c.lastWin {
		c.lastWin = w
		c.winHook(w)
	}
}
