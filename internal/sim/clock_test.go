package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockZeroValueStartsAtZero(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", c.Now())
	}
	if c.Freq() != DefaultFreqHz {
		t.Fatalf("zero clock Freq() = %v, want default %v", c.Freq(), DefaultFreqHz)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(2e9)
	c.AdvanceCycles(2e6)
	if got := c.Now(); got != 1e-3 {
		t.Fatalf("Now() = %v, want 1ms", got)
	}
	c.AdvanceCycles(-5) // negative charges must be ignored
	if got := c.NowCycles(); got != 2e6 {
		t.Fatalf("NowCycles() after negative advance = %v, want 2e6", got)
	}
}

func TestClockAdvanceCycles(t *testing.T) {
	c := NewClock(2e9)
	c.AdvanceCycles(2e9) // one second of cycles
	if got := float64(c.Now()); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Now() = %v, want 1s", got)
	}
	if got := float64(c.NowCycles()); math.Abs(got-2e9) > 1 {
		t.Fatalf("NowCycles() = %v, want 2e9", got)
	}
}

func TestClockSyncToOnlyMovesForward(t *testing.T) {
	c := NewClock(0)
	c.SyncTo(5)
	c.SyncTo(3)
	if c.Now() != 5 {
		t.Fatalf("SyncTo moved clock backwards: %v", c.Now())
	}
	c.SyncTo(7)
	if c.Now() != 7 {
		t.Fatalf("SyncTo did not move clock forward: %v", c.Now())
	}
}

func TestClockReset(t *testing.T) {
	c := NewClock(0)
	c.AdvanceCycles(42)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset left clock at %v", c.Now())
	}
}

func TestClockMonotonic(t *testing.T) {
	// Property: no sequence of AdvanceCycles/SyncTo calls can move time
	// backwards.
	f := func(steps []float64) bool {
		c := NewClock(1e9)
		prev := c.Now()
		for i, s := range steps {
			if i%2 == 0 {
				c.AdvanceCycles(Cycles(s))
			} else {
				c.SyncTo(Time(s))
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCycleTimeConversionRoundTrip pins snapshot recovery's contract: a
// clock reset to its own Now() reads the same Now(), at both profiles'
// frequencies, for cycle counts with and without a fractional part.
func TestCycleTimeConversionRoundTrip(t *testing.T) {
	for _, hz := range []float64{2e9, 2.2e9} {
		f := func(whole uint64, frac uint16) bool {
			c := NewClock(hz)
			c.AdvanceCycles(Cycles(whole>>12) + Cycles(frac)/1000)
			want := c.Now()
			c.SetNow(want)
			return c.Now() == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
			t.Fatalf("%v Hz: %v", hz, err)
		}
	}
}

// TestClockRunChargeExact pins what lets the engine charge a run of k
// identical lines in one step: for a dyadic cost c, k charges of c leave
// the clock where one charge of k*c does, bit for bit, from any start.
func TestClockRunChargeExact(t *testing.T) {
	f := func(start uint32, k uint8, units uint16) bool {
		c := Cycles(units) / 8 // a dyadic cost: whole eighths of a cycle
		one, run := NewClock(2e9), NewClock(2e9)
		one.AdvanceCycles(Cycles(start) + 0.375)
		run.AdvanceCycles(Cycles(start) + 0.375)
		for i := 0; i < int(k); i++ {
			one.AdvanceCycles(c)
		}
		run.AdvanceCycles(Cycles(k) * c)
		return one.NowCycles() == run.NowCycles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{5e-9, "5.0ns"},
		{3.5e-6, "3.50us"},
		{1.2e-3, "1.200ms"},
		{2.5, "2.500s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

// TestWindowHookAllocFree: with a sampling hook installed, asking whether
// a move crosses a window — from instant zero too — and advancing across
// one allocate nothing beyond what the hook does.
func TestWindowHookAllocFree(t *testing.T) {
	c := NewClock(1e9)
	fired := 0
	c.SetWindowHook(64, func(uint64) { fired++ })
	if a := testing.AllocsPerRun(100, func() {
		c.Reset()
		if c.Crosses(0) || !c.Crosses(100) {
			t.Fatal("Crosses disagrees with a 64-cycle window")
		}
		c.AdvanceCycles(100)
	}); a != 0 {
		t.Fatalf("a hooked clock allocates %v objects per round, want 0", a)
	}
	if fired != 101 {
		t.Fatalf("the hook fired %d times in 101 rounds, want once per round", fired)
	}
}
