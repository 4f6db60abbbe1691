package trace

// series.go is the deterministic time-series layer: a sampler driven by
// the simulated clocks (sim.Clock window hooks) that turns each
// process's monotonic accumulators into bounded rings of per-window
// deltas. (The flight recorder a warn-or-worse ledger entry freezes is
// read off the sink's span list; see Sink.flightLocked.)
//
// The delta-sum contract: for every process, the evicted aggregate plus
// the retained samples plus the synthesized tail sum *exactly* (float64
// bit-exact, not approximately) to the end-of-run accumulator totals.
// Each delta d between cumulative images last and cur is constructed so
// that last+d == cur in float64 (see exactDelta); eviction folds deltas
// back into a base image, which by the same identity stays exactly the
// cumulative image at the eviction boundary. A left-to-right sum over
// the exported series therefore telescopes to the final totals with no
// rounding slack, and SeriesView.Check verifies equality, not tolerance.
//
// Determinism under the parallel runner follows the same discipline as
// the rest of the sink: window indices are derived from simulated
// clocks, so worker sinks record identical samples regardless of worker
// count, and Merge folds per-process series state in input order. A
// machine's series lives entirely inside one work unit (the mmt-vet
// tracectx confinement rule), so the destination side of every fold is
// zero and the fold is a copy. A fold onto a machine that already has
// series state keeps the contract by evicting every sample of both
// sides (see mergeSeriesLocked).

import (
	"fmt"
	"math"

	"mmt/internal/sim"
)

// SeriesSchema identifies the series artifact written by WriteSeriesJSON.
const SeriesSchema = "mmt-series/v1"

// DefaultSeriesCap is the default per-process bound on retained window
// samples. Fixed, not tuned per run, so identical workloads keep
// identical series.
const DefaultSeriesCap = 64

// DefaultFlightCap is how many of its process's most recent spans a
// warn-or-worse ledger entry freezes.
const DefaultFlightCap = 16

// SeriesConfig configures the windowed sampler for a Sink.
type SeriesConfig struct {
	// WindowCycles is the sampling window in simulated cycles. It must
	// be a power of two — the window index is a shift of the cycle
	// count — and EnableSeries refuses any other. Each process keeps
	// its newest DefaultSeriesCap samples; older ones fold into the
	// evicted aggregate.
	WindowCycles uint64
}

// SeriesSample is one window's accumulator delta (or, for the evicted
// aggregate and totals, a cumulative image in the same shape; the
// sampler keeps its own images in it too, Window unused).
type SeriesSample struct {
	// Window is the sample's window index: cycle range
	// [Window*W, (Window+1)*W) for window size W.
	Window   uint64      `json:"window"`
	Counters Counts      `json:"counters"`
	Cycles   PhaseCycles `json:"cycles"`
	// Ops holds the per-operation histogram count and cycle-sum deltas
	// (bucket occupancy is not sampled; the end-of-run histogram export
	// carries the full distribution).
	Ops OpSums `json:"ops"`
}

// loadFrom sets the image to p's cumulative accumulators.
func (a *SeriesSample) loadFrom(p *procMetrics) {
	a.Counters = p.counters
	a.Cycles = p.cycles
	for op := range p.ops {
		a.Ops[op] = OpSum{Count: p.ops[op].Count, Sum: p.ops[op].Sum}
	}
}

// add folds one delta into the image, preserving the exactDelta
// identity: if d was built as the exact delta from this image to some
// cumulative image cur, the result equals cur bit for bit.
func (a *SeriesSample) add(d *SeriesSample) {
	for i := range a.Counters {
		a.Counters[i] += d.Counters[i]
	}
	for i := range a.Cycles {
		a.Cycles[i] += d.Cycles[i]
	}
	for i := range a.Ops {
		a.Ops[i].Count += d.Ops[i].Count
		a.Ops[i].Sum += d.Ops[i].Sum
	}
}

// deltaTo computes the exact delta from a to cur: a sample d with
// a+d == cur fieldwise in float64. changed reports whether any field
// moved.
func (a *SeriesSample) deltaTo(cur *SeriesSample) (SeriesSample, bool) {
	var d SeriesSample
	changed := false
	for i := range cur.Counters {
		if n := cur.Counters[i] - a.Counters[i]; n != 0 {
			d.Counters[i] = n
			changed = true
		}
	}
	for i := range cur.Cycles {
		if cur.Cycles[i] != a.Cycles[i] {
			d.Cycles[i] = exactDelta(a.Cycles[i], cur.Cycles[i])
			changed = true
		}
	}
	for i := range cur.Ops {
		if n := cur.Ops[i].Count - a.Ops[i].Count; n != 0 {
			d.Ops[i].Count = n
			changed = true
		}
		if cur.Ops[i].Sum != a.Ops[i].Sum {
			d.Ops[i].Sum = exactDelta(a.Ops[i].Sum, cur.Ops[i].Sum)
			changed = true
		}
	}
	return d, changed
}

// exactDelta returns a d with last+d == cur exactly in float64. The
// naive difference is correctly rounded, so the true delta is within
// half an ulp of it and the set of floats d satisfying fl(last+d)==cur
// is a non-empty interval around it; at most a few one-ulp nudges land
// inside.
func exactDelta(last, cur sim.Cycles) sim.Cycles {
	l, c := float64(last), float64(cur)
	d := c - l
	for i := 0; i < 4 && l+d != c; i++ {
		if l+d < c {
			d = math.Nextafter(d, math.Inf(1))
		} else {
			d = math.Nextafter(d, math.Inf(-1))
		}
	}
	return sim.Cycles(d)
}

// procSeries is one process's sampler state.
type procSeries struct {
	// curWindow is the in-progress window index, maintained by the
	// clock hook; security events are stamped with it.
	curWindow uint64
	// sampled/lastLabel track the newest ring sample's window label
	// (strictly increasing across samples).
	sampled   bool
	lastLabel uint64
	// last is the cumulative accumulator image at the newest sample.
	last SeriesSample
	// base is the cumulative image at the eviction boundary: ring
	// overflow folds the oldest sample into it, and the exactDelta
	// identity keeps it bit-exact.
	base        SeriesSample
	baseWindows uint64 // evicted sample count
	baseThrough uint64 // highest evicted window label
	ring        []SeriesSample
	head        int // index of the oldest sample once the ring is full
}

// push appends a delta, folding the oldest sample into base when the
// ring is at its bound.
func (ps *procSeries) push(d SeriesSample, max int) {
	if max <= 0 {
		max = DefaultSeriesCap
	}
	if len(ps.ring) < max {
		ps.ring = append(ps.ring, d)
		return
	}
	old := &ps.ring[ps.head]
	ps.base.add(old)
	ps.baseWindows++
	ps.baseThrough = old.Window
	ps.ring[ps.head] = d
	ps.head++
	if ps.head == len(ps.ring) {
		ps.head = 0
	}
}

// samplesOldestFirst copies the retained ring in window order.
func (ps *procSeries) samplesOldestFirst() []SeriesSample {
	out := make([]SeriesSample, 0, len(ps.ring))
	out = append(out, ps.ring[ps.head:]...)
	out = append(out, ps.ring[:ps.head]...)
	return out
}

// EnableSeries switches on windowed sampling for the sink. The window
// must be a power of two; it must be called before any machine clock
// advances (changing the window mid-run would make samples depend on
// call timing). Calling it again with the same config is a no-op;
// a different config is an error.
func (s *Sink) EnableSeries(cfg SeriesConfig) error {
	if s == nil {
		return fmt.Errorf("trace: EnableSeries on a nil sink")
	}
	if cfg.WindowCycles == 0 || cfg.WindowCycles&(cfg.WindowCycles-1) != 0 {
		return fmt.Errorf("trace: series window must be a power of two cycles, got %d", cfg.WindowCycles)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seriesOn && s.seriesCfg != cfg {
		return fmt.Errorf("trace: series sampling already enabled (window=%d)", s.seriesCfg.WindowCycles)
	}
	s.seriesOn = true
	s.seriesCfg = cfg
	return nil
}

// SeriesConfigured reports the sampler config and whether sampling is
// enabled — the window to hand to sim.Clock.SetWindowHook. Safe on a
// nil sink.
func (s *Sink) SeriesConfigured() (SeriesConfig, bool) {
	if s == nil {
		return SeriesConfig{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seriesCfg, s.seriesOn
}

// ObserveWindow is the sim.Clock window-hook target: the clock calls it
// with the index of the window it just entered, and the probe samples
// the delta accumulated since the previous sample, labeled with the
// last *completed* window (window-1). Multi-window jumps produce one
// sample covering the gap; idle windows produce none.
func (p *Probe) ObserveWindow(window uint64) {
	if p == nil {
		return
	}
	p.sink.mu.Lock()
	p.sink.observeWindowLocked(p.proc, window)
	p.sink.mu.Unlock()
}

func (s *Sink) observeWindowLocked(pm *procMetrics, window uint64) {
	if !s.seriesOn || window == 0 {
		return
	}
	ps := pm.series
	if ps == nil {
		ps = &procSeries{}
		pm.series = ps
	}
	if window <= ps.curWindow {
		return
	}
	ps.curWindow = window
	label := window - 1
	if ps.sampled && label <= ps.lastLabel {
		return
	}
	var cur SeriesSample
	cur.loadFrom(pm)
	d, changed := ps.last.deltaTo(&cur)
	if !changed {
		return
	}
	d.Window = label
	ps.push(d, DefaultSeriesCap)
	ps.last.add(&d)
	ps.lastLabel = label
	ps.sampled = true
}

// mergeSeriesLocked folds src's sampler state into dst's (both sinks'
// locks held by Merge, dst's accumulators already holding src's). When
// dst has no series state — the invariant the parallel runner's
// work-unit confinement guarantees — the fold is a copy. Otherwise the
// two sides' window labels come from different clocks, so no per-window
// sum means anything: every sample of both sides, and both tails, fold
// into the evicted aggregate, which is then the merged cumulative image
// itself and keeps the exact delta-sum contract.
func (s *Sink) mergeSeriesLocked(dst, src *procMetrics) {
	ss := src.series
	if ss == nil {
		return
	}
	ds := dst.series
	if ds == nil {
		ds = &procSeries{}
		dst.series = ds
	}
	if !ds.sampled && ds.baseWindows == 0 && ds.curWindow == 0 && len(ds.ring) == 0 {
		ds.curWindow = ss.curWindow
		ds.sampled = ss.sampled
		ds.lastLabel = ss.lastLabel
		ds.last = ss.last
		ds.base = ss.base
		ds.baseWindows = ss.baseWindows
		ds.baseThrough = ss.baseThrough
		ds.ring = ss.samplesOldestFirst()
		ds.head = 0
		return
	}
	ds.baseWindows += ss.baseWindows + uint64(len(ds.ring)+len(ss.ring))
	ds.sampled = ds.sampled || ss.sampled
	ds.lastLabel = max(ds.lastLabel, ss.lastLabel) // 0 on a side that never sampled
	ds.curWindow = max(ds.curWindow, ss.curWindow)
	if ds.baseWindows > 0 { // else neither side sampled: all of it is tail
		ds.base.loadFrom(dst)
		ds.baseThrough = ds.lastLabel
	}
	ds.last, ds.ring, ds.head = ds.base, nil, 0
}

// ProcSeries is the exported series of one process.
type ProcSeries struct {
	Proc string `json:"proc"`
	// EvictedWindows/EvictedThrough/Evicted describe samples that fell
	// off the bounded ring: how many, through which window label, and
	// their exact aggregate (Evicted.Window == EvictedThrough), the zero
	// sample when nothing was evicted.
	EvictedWindows uint64       `json:"evicted_windows"`
	EvictedThrough uint64       `json:"evicted_through"`
	Evicted        SeriesSample `json:"evicted,omitzero"`
	// Samples holds the retained per-window deltas oldest-first, plus a
	// synthesized tail delta for activity since the last sample.
	Samples []SeriesSample `json:"samples"`
	// Totals is the end-of-run cumulative accumulator image; by the
	// exact delta-sum contract, Evicted plus all Samples equals it bit
	// for bit.
	Totals SeriesSample `json:"totals"`
}

// SeriesView is a copied, immutable snapshot of a sink's series. Its
// tags are the shape of the mmt-series/v1 document (see seriesDoc).
type SeriesView struct {
	WindowCycles uint64       `json:"window_cycles"`
	MaxSamples   int          `json:"max_samples"`
	Procs        []ProcSeries `json:"procs"` // sorted by process name
}

// Check verifies the sampler's contract on a view, whether it came from
// SeriesSnapshot or from ParseSeries: a power-of-two window, name-ordered
// non-idle procs, at most MaxSamples retained deltas plus the
// synthesized tail, strictly increasing window labels from the evicted
// aggregate through the samples to Totals.Window, and — the load-bearing
// one — per key the evicted aggregate plus the samples, summed left to
// right in float64, equal to Totals EXACTLY: every delta is built so the
// sum telescopes without rounding.
func (v *SeriesView) Check() error {
	if w := v.WindowCycles; w == 0 || w&(w-1) != 0 || v.MaxSamples < 1 {
		return fmt.Errorf("series: window_cycles %d must be a power of two and max_samples %d at least 1", w, v.MaxSamples)
	}
	for i := range v.Procs {
		p := &v.Procs[i]
		at := func(format string, args ...interface{}) error {
			return fmt.Errorf("series proc %q: %s", p.Proc, fmt.Sprintf(format, args...))
		}
		if p.Proc == "" || i > 0 && p.Proc <= v.Procs[i-1].Proc {
			return at("empty or out of name order")
		}
		if len(p.Samples) == 0 && p.EvictedWindows == 0 {
			return at("an idle proc must be omitted")
		}
		if len(p.Samples) > v.MaxSamples+1 {
			return at("%d samples exceed the ring bound max_samples %d+1", len(p.Samples), v.MaxSamples)
		}
		if (p.Evicted != SeriesSample{}) != (p.EvictedWindows > 0) {
			return at("evicted aggregate must be present exactly when evicted_windows > 0")
		}
		if p.Evicted.Window != p.EvictedThrough {
			return at("evicted window %d != evicted_through %d", p.Evicted.Window, p.EvictedThrough)
		}
		if neg := p.Evicted.negative() + p.Totals.negative(); neg != "" {
			return at("negative %s cycles in the evicted aggregate or the totals", neg)
		}
		var sum SeriesSample
		sum.add(&p.Evicted) // the zero sample when nothing was evicted
		last, any := p.EvictedThrough, p.EvictedWindows > 0
		for j := range p.Samples {
			d := &p.Samples[j]
			if any && d.Window <= last {
				return at("samples[%d]: window %d not after %d", j, d.Window, last)
			}
			if neg := d.negative(); neg != "" {
				return at("samples[%d]: negative %s cycles", j, neg)
			}
			last, any = d.Window, true
			sum.add(d)
		}
		if p.Totals.Window != last {
			return at("totals window %d != newest window %d", p.Totals.Window, last)
		}
		for c, n := range sum.Counters {
			if n != p.Totals.Counters[c] {
				return at("counter %q: evicted+samples sum to %d, totals say %d", Counter(c), n, p.Totals.Counters[c])
			}
		}
		for ph, n := range sum.Cycles {
			if n != p.Totals.Cycles[ph] {
				return at("phase %q: evicted+samples sum to %v, totals say %v (must be exact)", Phase(ph), n, p.Totals.Cycles[ph])
			}
		}
		for op, n := range sum.Ops {
			if n != p.Totals.Ops[op] {
				return at("op %q: evicted+samples sum to %d ops / %v cycles, totals say %d / %v (must be exact)",
					Op(op), n.Count, n.Sum, p.Totals.Ops[op].Count, p.Totals.Ops[op].Sum)
			}
		}
	}
	return nil
}

// negative names a phase or an operation whose cycles are below zero in
// the sample, or returns "".
func (s *SeriesSample) negative() string {
	for ph, c := range s.Cycles {
		if c < 0 {
			return Phase(ph).String()
		}
	}
	for op, o := range s.Ops {
		if o.Sum < 0 {
			return Op(op).String()
		}
	}
	return ""
}

// SeriesSnapshot captures the current series without mutating sampler
// state (the tail sample is synthesized on the fly), so it is safe to
// call mid-run from observer goroutines. The bool reports whether
// sampling is enabled.
func (s *Sink) SeriesSnapshot() (SeriesView, bool) {
	if s == nil {
		return SeriesView{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.seriesOn {
		return SeriesView{}, false
	}
	v := SeriesView{WindowCycles: s.seriesCfg.WindowCycles, MaxSamples: DefaultSeriesCap, Procs: []ProcSeries{}}
	for _, pm := range s.procs {
		var state procSeries
		if pm.series != nil {
			state = *pm.series
		}
		var cur SeriesSample
		cur.loadFrom(pm)
		samples := state.samplesOldestFirst()
		if tail, changed := state.last.deltaTo(&cur); changed {
			tail.Window = state.curWindow
			samples = append(samples, tail)
		}
		if len(samples) == 0 && state.baseWindows == 0 {
			continue
		}
		pr := ProcSeries{
			Proc:           pm.name,
			EvictedWindows: state.baseWindows,
			EvictedThrough: state.baseThrough,
			Samples:        samples,
			Totals:         cur,
		}
		if state.baseWindows > 0 {
			pr.Evicted = state.base
			pr.Evicted.Window = state.baseThrough
		}
		if n := len(samples); n > 0 {
			pr.Totals.Window = samples[n-1].Window
		} else {
			pr.Totals.Window = state.baseThrough
		}
		v.Procs = append(v.Procs, pr)
	}
	sortProcSeries(v.Procs)
	return v, true
}

// sortProcSeries orders series by process name (insertion sort, same
// rationale as sortProcs).
func sortProcSeries(ps []ProcSeries) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Proc < ps[j-1].Proc; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Severity ranks ledger event kinds for alerting and flight-recorder
// attachment.
type Severity uint8

const (
	// SevInfo: normal lifecycle (migrations, acks, reclaims).
	SevInfo Severity = iota
	// SevWarn: an operation was rejected defensively.
	SevWarn
	// SevError: authenticated state is provably wrong.
	SevError
)

var severityNames = [...]string{SevInfo: "info", SevWarn: "warn", SevError: "error"}

func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return "severity?"
}

// Severity classifies the kind: integrity and authentication failures
// are errors, defensive rejections are warnings, everything else is
// informational lifecycle.
func (k EventKind) Severity() Severity {
	switch k {
	case EvIntegrityFail, EvAuthFail:
		return SevError
	case EvReplayReject, EvReorderReject, EvStaleCounter, EvMigrationReject:
		return SevWarn
	default:
		return SevInfo
	}
}

// FlightSpan is one compact record in a process's flight recorder: its
// most recent completed spans, frozen onto warn-and-above ledger
// entries so each verdict carries its preceding execution context.
type FlightSpan struct {
	Phase Phase `json:"phase"`
	Begin Usec  `json:"begin_us"`
	End   Usec  `json:"end_us"`
	// Trace/Span carry the causal link when the span belonged to a
	// causal trace (zero, and omitted, otherwise).
	Trace TraceID `json:"trace,omitzero"`
	Span  uint32  `json:"span,omitzero"`
}
