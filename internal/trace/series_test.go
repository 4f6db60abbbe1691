package trace

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"mmt/internal/sim"
)

// driveWindows advances the clock through n windows, charging a mix of
// counters, fractional phase cycles and op latencies into p each step.
// The fractional charges (0.3 is not dyadic) are the point: they force
// the sampler's exact-delta construction to actually correct rounding.
func driveWindows(clock *sim.Clock, p *Probe, n, stepsPerWindow int, windowCycles uint64) {
	for i := 0; i < n*stepsPerWindow; i++ {
		p.Count(CtrNodeCacheHits, 2)
		p.Count(CtrMACVerifies, 1)
		p.Charge(clock, PhaseTreeWalk, sim.Cycles(float64(i%7)+0.3))
		p.Charge(clock, PhaseMAC, 11.7)
		p.RecordOp(OpLocalRead, sim.Cycles(float64(i%13)+0.1), 1)
		clock.AdvanceCycles(sim.Cycles(float64(windowCycles) / float64(stepsPerWindow)))
	}
}

// TestSeriesDeltaSumExact is the sampler's core invariant: the evicted
// aggregate plus the retained per-window deltas, summed left to right
// in float64, equal the cumulative accumulator totals EXACTLY — no
// tolerance — even with non-dyadic charges and ring eviction folding
// old deltas into the base. This is what lets SeriesView.Check verify
// series artifacts with ==.
func TestSeriesDeltaSumExact(t *testing.T) {
	const window = uint64(1024)
	s := NewSink()
	if err := s.EnableSeries(SeriesConfig{WindowCycles: window}); err != nil {
		t.Fatal(err)
	}
	p := s.Probe("alice")
	clock := sim.NewClock(1e9)
	clock.SetWindowHook(window, p.ObserveWindow)

	// Five rings' worth of windows: most deltas evict into the base.
	driveWindows(clock, p, 5*DefaultSeriesCap, 8, window)

	v, ok := s.SeriesSnapshot()
	if !ok || len(v.Procs) != 1 {
		t.Fatalf("snapshot: ok=%v procs=%d", ok, len(v.Procs))
	}
	pr := &v.Procs[0]
	if pr.EvictedWindows == 0 {
		t.Fatal("scenario must evict: grow the window count")
	}
	if len(pr.Samples) > v.MaxSamples+1 {
		t.Fatalf("ring bound violated: %d samples > %d+1", len(pr.Samples), v.MaxSamples)
	}

	var sum SeriesSample
	if pr.EvictedWindows > 0 {
		sum.add(&pr.Evicted)
	}
	last := pr.EvictedThrough
	for i := range pr.Samples {
		d := &pr.Samples[i]
		if (i > 0 || pr.EvictedWindows > 0) && d.Window <= last {
			t.Fatalf("sample %d: window %d not after %d", i, d.Window, last)
		}
		last = d.Window
		sum.add(d)
	}
	for c := Counter(0); c < NumCounters; c++ {
		if sum.Counters[c] != pr.Totals.Counters[c] {
			t.Errorf("counter %v: deltas sum to %d, totals %d", c, sum.Counters[c], pr.Totals.Counters[c])
		}
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if sum.Cycles[ph] != pr.Totals.Cycles[ph] {
			t.Errorf("phase %v: deltas sum to %v, totals %v (must be bit-exact)", ph, sum.Cycles[ph], pr.Totals.Cycles[ph])
		}
	}
	for op := Op(0); int(op) < NumOps; op++ {
		if sum.Ops[op] != pr.Totals.Ops[op] {
			t.Errorf("op %v: delta sums %+v != totals %+v", op, sum.Ops[op], pr.Totals.Ops[op])
		}
	}
	// And the totals match the live accumulators — nothing was lost
	// between the per-window images and the cumulative state.
	m := s.Snapshot()
	if got := pr.Totals.Cycles[PhaseMAC]; got != m.Procs[0].Cycles[PhaseMAC] {
		t.Errorf("series totals %v != accumulator %v", got, m.Procs[0].Cycles[PhaseMAC])
	}
}

// TestSeriesMergeReproducesSerial: sharded sinks (each machine's series
// recorded in its own worker sink, merged serially in input order)
// export byte-identical mmt-series/v1 documents to a single-sink run.
func TestSeriesMergeReproducesSerial(t *testing.T) {
	const window = uint64(512)
	cfg := SeriesConfig{WindowCycles: window}
	// About two rings' worth of windows per machine, so the merged
	// documents carry evicted aggregates too.
	run := func(p *Probe, clock *sim.Clock, seed int) {
		for i := 0; i < 60*DefaultSeriesCap/8; i++ {
			p.Count(CtrTreeNodeWalks, uint64(seed))
			p.Charge(clock, PhaseData, sim.Cycles(float64((i+seed)%5)+0.9))
			p.RecordOp(OpLocalWrite, sim.Cycles(float64(seed)+0.25), 1)
			clock.AdvanceCycles(150)
		}
	}

	serial := NewSink()
	if err := serial.EnableSeries(cfg); err != nil {
		t.Fatal(err)
	}
	for seed, name := range []string{"m0", "m1", "m2"} {
		p := serial.Probe(name)
		clock := sim.NewClock(1e9)
		clock.SetWindowHook(window, p.ObserveWindow)
		run(p, clock, seed+1)
	}

	root := NewSink()
	if err := root.EnableSeries(cfg); err != nil {
		t.Fatal(err)
	}
	for seed, name := range []string{"m0", "m1", "m2"} {
		part := NewSink()
		if err := part.EnableSeries(cfg); err != nil {
			t.Fatal(err)
		}
		p := part.Probe(name)
		clock := sim.NewClock(1e9)
		clock.SetWindowHook(window, p.ObserveWindow)
		run(p, clock, seed+1)
		root.Merge(part)
	}

	var a, b bytes.Buffer
	if err := serial.WriteSeriesJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteSeriesJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged series differs from serial:\nserial:\n%s\nmerged:\n%s", a.String(), b.String())
	}
	// The reader gives back exactly the view the writer serialised, and
	// the live view passes the check the reader applies.
	live, _ := serial.SeriesSnapshot()
	if err := live.Check(); err != nil {
		t.Fatalf("live view: %v", err)
	}
	if parsed, err := ParseSeries(a.Bytes()); err != nil || !reflect.DeepEqual(parsed, live) {
		t.Fatalf("series did not round-trip (err %v):\n got %+v\nwant %+v", err, parsed, live)
	}
}

// TestSeriesMergeOverlapExact: sinks that each sampled the same machine
// on their own clock (parts of a run that moved between workers) merge into a series that still keeps the exact
// delta-sum contract, so the merged view passes Check and ParseSeries
// takes back exactly what WriteSeriesJSON wrote.
func TestSeriesMergeOverlapExact(t *testing.T) {
	const window = uint64(256)
	// Each part runs windows+i windows: from one and a half rings to
	// five, and one case that never fills the ring.
	cfg := SeriesConfig{WindowCycles: window}
	for _, tc := range []struct{ parts, windows, steps int }{
		{4, DefaultSeriesCap * 3 / 2, 8},
		{3, DefaultSeriesCap * 5, 3},
		{3, DefaultSeriesCap * 5 / 4, 8},
		{4, DefaultSeriesCap * 5 / 16, 1},
		{2, DefaultSeriesCap * 5 / 2, 3},
	} {
		root := NewSink()
		if err := root.EnableSeries(cfg); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.parts; i++ {
			part := NewSink()
			if err := part.EnableSeries(cfg); err != nil {
				t.Fatal(err)
			}
			p := part.Probe("m")
			clock := sim.NewClock(1e9)
			clock.SetWindowHook(window, p.ObserveWindow)
			driveWindows(clock, p, tc.windows+i, tc.steps, window) // parts of unequal length
			root.Merge(part)
		}
		live, _ := root.SeriesSnapshot()
		if err := live.Check(); err != nil {
			t.Errorf("%+v: merged view: %v", tc, err)
			continue
		}
		var buf bytes.Buffer
		if err := root.WriteSeriesJSON(&buf); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if parsed, err := ParseSeries(buf.Bytes()); err != nil || !reflect.DeepEqual(parsed, live) {
			t.Errorf("%+v: series did not round-trip (err %v)", tc, err)
		}
	}
}

// TestFlightRecorderFreeze mirrors the package-level mid-run snapshot
// test for the flight recorder: one goroutine records spans while the
// driver fires warn-severity events and observers poison the returned
// copies. Every frozen flight must be a detached, oldest-first copy of
// recent spans; poisoned snapshots must never leak back. Run with -race
// this also proves the recorder's locking discipline.
func TestFlightRecorderFreeze(t *testing.T) {
	s := NewSink()
	p := s.Probe("alice")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			begin := sim.Time(float64(i) * 1e-6)
			p.Span(PhaseTreeWalk, begin, begin+1e-7)
		}
	}()

	for round := 0; round < 200; round++ {
		p.Event(EvReplayReject, sim.Time(float64(round)*1e-6), uint64(round), "stale counter value")
		evs := s.SecEvents()
		for i := range evs {
			ev := &evs[i]
			if ev.Kind.Severity() < SevWarn {
				t.Fatalf("event %d: kind %v below warn made it into this test", i, ev.Kind)
			}
			for j := range ev.Flight {
				fs := &ev.Flight[j]
				if fs.Begin < 0 {
					t.Fatal("poisoned flight span leaked into the ledger")
				}
				if j > 0 && fs.Begin < ev.Flight[j-1].Begin {
					t.Fatalf("event %d: flight not oldest-first: %v after %v", i, fs.Begin, ev.Flight[j-1].Begin)
				}
			}
			// Poison the copy; later snapshots must not see it.
			for j := range ev.Flight {
				ev.Flight[j].Begin = -1
			}
		}
	}
	close(stop)
	wg.Wait()

	// Info-severity events stay lean: no flight freeze.
	p.Event(EvMigrationSend, 0, 0, "routine")
	evs := s.SecEvents()
	last := evs[len(evs)-1]
	if last.Kind != EvMigrationSend || last.Flight != nil {
		t.Fatalf("info event froze a flight: %+v", last)
	}
}

// TestFlightIsNewestSpansOfItsProcess: a warn entry freezes exactly the
// newest DefaultFlightCap spans its own process recorded, oldest first,
// causal links included and other processes' spans skipped; spans folded
// in by Merge count as recorded at the merge, and Reset forgets them all.
func TestFlightIsNewestSpansOfItsProcess(t *testing.T) {
	s := NewSink()
	alice, bob := s.Probe("alice"), s.Probe("bob")
	at := func(i int) sim.Time { return sim.Time(float64(i) * 1e-6) }
	for i := 0; i < 2*DefaultFlightCap; i++ {
		alice.Span(PhaseMAC, at(i), at(i)+1e-7)
		bob.Span(PhaseData, at(i), at(i)+1e-7)
	}
	ctx := alice.NewTrace()
	sp := alice.BeginSpan(ctx, PhaseSend, at(100))
	sp.End(at(101))

	part := NewSink()
	part.Probe("alice").Span(PhaseWire, at(200), at(201))
	s.Merge(part)
	alice.Event(EvStaleCounter, at(300), 0, "stale")
	s.Probe("carol").Event(EvReplayReject, at(300), 0, "no spans")

	evs := s.SecEvents()
	flight := evs[0].Flight
	if len(flight) != DefaultFlightCap {
		t.Fatalf("flight holds %d spans, want %d", len(flight), DefaultFlightCap)
	}
	// The two newest are the causal and the merged span, so alice's plain
	// spans start at index DefaultFlightCap+2 of 2*DefaultFlightCap.
	want := FlightSpan{Phase: PhaseMAC, Begin: Micros(at(DefaultFlightCap + 2)), End: Micros(at(DefaultFlightCap+2) + 1e-7)}
	if flight[0] != want {
		t.Fatalf("oldest frozen span %+v, want %+v", flight[0], want)
	}
	for i := 1; i < DefaultFlightCap-2; i++ {
		if flight[i].Phase != PhaseMAC || flight[i].Begin <= flight[i-1].Begin {
			t.Fatalf("flight[%d] = %+v is not alice's next span", i, flight[i])
		}
	}
	causal := FlightSpan{Phase: PhaseSend, Begin: Micros(at(100)), End: Micros(at(101)), Trace: ctx.ID, Span: 1}
	if flight[DefaultFlightCap-2] != causal || flight[DefaultFlightCap-1].Phase != PhaseWire {
		t.Fatalf("newest frozen spans %+v, want the causal span then the merged one", flight[DefaultFlightCap-2:])
	}
	if evs[1].Flight != nil {
		t.Fatalf("a process with no spans froze %+v", evs[1].Flight)
	}

	s.Reset()
	alice.Event(EvStaleCounter, 0, 0, "after reset")
	if f := s.SecEvents()[0].Flight; f != nil {
		t.Fatalf("flight survived Reset: %+v", f)
	}
}

// TestSeriesDisabledZeroAlloc: with tracing on but sampling off, the hot
// line path — counter bumps, cycle charges (an out-of-range counter or
// phase included), op records, clock advances — allocates nothing.
// Sampling must be pay-for-what-you-enable.
func TestSeriesDisabledZeroAlloc(t *testing.T) {
	s := NewSink()
	p := s.Probe("alice")
	clock := sim.NewClock(1e9)
	if allocs := testing.AllocsPerRun(1000, func() {
		p.Count(CtrNodeCacheHits, 1)
		p.Charge(clock, PhaseTreeWalk, 8)
		p.RecordOp(OpLocalRead, 12, 1)
		clock.AdvanceCycles(64)
		p.Count(NumCounters, 1)       // out of range: ignored
		p.Charge(clock, NumPhases, 8) // books nothing, still advances
	}); allocs != 0 {
		t.Fatalf("sampling-disabled hot path allocates %v per op", allocs)
	}
}

// TestEnableSeriesValidation: bad configs are rejected eagerly and
// reconfiguration with a different shape is refused (retention would
// depend on call timing otherwise).
func TestEnableSeriesValidation(t *testing.T) {
	s := NewSink()
	if err := s.EnableSeries(SeriesConfig{WindowCycles: 1000}); err == nil {
		t.Fatal("non-power-of-two window accepted")
	}
	if err := s.EnableSeries(SeriesConfig{WindowCycles: 0}); err == nil {
		t.Fatal("zero window accepted")
	}
	if err := s.EnableSeries(SeriesConfig{WindowCycles: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableSeries(SeriesConfig{WindowCycles: 1 << 13}); err == nil {
		t.Fatal("reconfiguration with a different window accepted")
	}
	if err := s.EnableSeries(SeriesConfig{WindowCycles: 1 << 12}); err != nil {
		t.Fatalf("idempotent re-enable refused: %v", err)
	}
	if cfg, ok := s.SeriesConfigured(); !ok || cfg.WindowCycles != 1<<12 {
		t.Fatalf("SeriesConfigured = %+v, %v", cfg, ok)
	}
	// Disabled sinks export nothing.
	var buf bytes.Buffer
	if err := NewSink().WriteSeriesJSON(&buf); err == nil {
		t.Fatal("disabled sink exported a series document")
	}
}
