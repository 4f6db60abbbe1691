package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"mmt/internal/mapreduce"
	"mmt/internal/sim"
	"mmt/internal/trace"
)

// This file builds the per-figure metrics sidecars (BENCH_<fig>.json):
// machine-readable companions to the rendered tables, carrying the
// figure's headline numbers plus the trace-layer breakdown (per-phase
// cycles and counters) of the run that produced them. Sidecars are
// deterministic: structs only (no maps reach the encoder), fixed slice
// orders, and all numbers read off the simulated clocks.

// SidecarTotal is one reported headline number of a figure.
type SidecarTotal struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"` // "cycles", "seconds", "x", "bytes", "count"
}

// SidecarPhase is one phase's cycle total.
type SidecarPhase struct {
	Phase  string     `json:"phase"`
	Cycles sim.Cycles `json:"cycles"`
}

// SidecarCounter is one monotonic counter's final value.
type SidecarCounter struct {
	Counter string `json:"counter"`
	Value   uint64 `json:"value"`
}

// SidecarHist is one (process, operation) latency-histogram summary:
// the quantiles a dashboard wants without shipping every bucket. Exact
// bucket counts live in the mmt-hist/v1 export (trace.WriteHistJSON);
// the sidecar carries the summary so figure results and latency
// distributions travel in one file.
type SidecarHist struct {
	Proc  string     `json:"proc"`
	Op    string     `json:"op"`
	Count uint64     `json:"count"`
	P50   sim.Cycles `json:"p50_cycles"`
	P90   sim.Cycles `json:"p90_cycles"`
	P99   sim.Cycles `json:"p99_cycles"`
	Max   sim.Cycles `json:"max_cycles"`
	Mean  sim.Cycles `json:"mean_cycles"`
}

// SidecarProc is one traced process's breakdown (nonzero entries only,
// in enum order).
type SidecarProc struct {
	Proc     string           `json:"proc"`
	Phases   []SidecarPhase   `json:"phases,omitempty"`
	Counters []SidecarCounter `json:"counters,omitempty"`
}

// SidecarMigration is one migration's end-to-end causal accounting: the
// compact view of an mmt-causal/v1 span tree. TotalCycles sums the
// attributed cycles of every span across sender and receiver, so the
// sum over all migrations equals the run's migration-send-cycles plus
// migration-recv-cycles totals (Check verifies this).
type SidecarMigration struct {
	ID                string     `json:"id"`
	RootProc          string     `json:"root_proc"`
	Spans             int        `json:"spans"`
	TotalCycles       sim.Cycles `json:"total_cycles"`
	CriticalPathLen   int        `json:"critical_path_len"`
	CriticalElapsedUs float64    `json:"critical_elapsed_us"`
}

// Sidecar is the BENCH_<fig>.json payload.
type Sidecar struct {
	Figure      string `json:"figure"`
	Profile     string `json:"profile"`
	Description string `json:"description"`
	// Totals are the figure's reported headline numbers.
	Totals []SidecarTotal `json:"totals"`
	// PhaseCycles aggregates each phase across all traced processes.
	PhaseCycles []SidecarPhase `json:"phase_cycles,omitempty"`
	// PhaseSumCycles is the sum of every phase accumulator.
	PhaseSumCycles sim.Cycles `json:"phase_sum_cycles"`
	// CheckTotalCycles, when nonzero, is the figure's reported cycle
	// total. Every cycle charged in the simulation is mirrored into
	// exactly one phase, so PhaseSumCycles equals it up to float64
	// re-association (the two sides sum the same charges in different
	// orders); Sidecar.Check verifies the match.
	CheckTotalCycles sim.Cycles    `json:"check_total_cycles,omitempty"`
	Procs            []SidecarProc `json:"procs,omitempty"`
	// Hists summarizes every nonempty per-operation latency histogram
	// (proc-major, operation enum order).
	Hists []SidecarHist `json:"hists,omitempty"`
	// Migrations is the per-migration causal breakdown, in trace-ID order
	// (root process, then sequence).
	Migrations []SidecarMigration `json:"migrations,omitempty"`
	// Series summarizes the windowed time series when the figure ran
	// with sampling on (the full artifact is the mmt-series/v1 sidecar
	// companion; the golden fig10/fig11 sidecars run without it).
	Series *SidecarSeries `json:"series,omitempty"`
}

// SidecarSeriesProc summarizes one process's window series.
type SidecarSeriesProc struct {
	Proc string `json:"proc"`
	// Windows counts materialized samples (evicted + retained + tail);
	// Evicted counts samples folded into the evicted aggregate.
	Windows uint64 `json:"windows"`
	Evicted uint64 `json:"evicted_windows"`
	// LastWindow is the newest sample's window label.
	LastWindow uint64 `json:"last_window"`
	// Cycles is the series' cycle total (equals the process's phase-sum
	// by the exact delta-sum contract).
	Cycles sim.Cycles `json:"cycles"`
}

// SidecarSeries is the sidecar's series summary section.
type SidecarSeries struct {
	Schema       string              `json:"schema"` // trace.SeriesSchema
	WindowCycles uint64              `json:"window_cycles"`
	MaxSamples   int                 `json:"max_samples"`
	Procs        []SidecarSeriesProc `json:"procs"`
}

// ParseSidecar is JSON's reader: trace.DecodeStrict (a document reads
// only if it re-encodes to itself) of a sidecar that passes Check.
func ParseSidecar(data []byte) (*Sidecar, error) {
	sc := &Sidecar{}
	if err := trace.DecodeStrict("BENCH_fig sidecar", data, sc); err != nil {
		return nil, err
	}
	return sc, sc.Check()
}

// isCycles reports whether c can be a cycle figure: finite, not negative.
func isCycles(c sim.Cycles) bool { return c >= 0 && !math.IsInf(float64(c), 0) }

// Check verifies every invariant a sidecar carries. JSON runs it before
// writing and ParseSidecar after reading, so no sidecar passes one and
// fails the other. Header and totals are filled in, in known
// units; phase_cycles sum to phase_sum_cycles, which accounts for
// check_total_cycles when the figure reports one (every charged cycle is
// mirrored into exactly one phase); the procs' phases re-add to
// phase_cycles; phases, counters and operations carry names from the
// trace package's tables; histogram quantiles are monotone; the
// migrations' causal totals re-add to the run's migration totals (every
// migration is one trace, every migration cycle in one span); the series
// summary is well formed.
func (sc *Sidecar) Check() error {
	bad := func(format string, args ...interface{}) error {
		return fmt.Errorf("fig %s: %s", sc.Figure, fmt.Sprintf(format, args...))
	}
	if sc.Figure == "" || sc.Profile == "" || sc.Description == "" || len(sc.Totals) == 0 {
		return bad("figure, profile, description and totals are required")
	}
	totals := map[string]float64{}
	for _, t := range sc.Totals {
		switch t.Unit {
		case "cycles", "seconds", "x", "bytes", "count":
		default:
			return bad("total %q: unknown unit %q", t.Name, t.Unit)
		}
		if t.Name == "" || math.IsNaN(t.Value) || math.IsInf(t.Value, 0) {
			return bad("totals need a name and a finite value, got %q = %v", t.Name, t.Value)
		}
		totals[t.Name] = t.Value
	}
	var cluster, procs [trace.NumPhases]sim.Cycles
	addPhases := func(into *[trace.NumPhases]sim.Cycles, phases []SidecarPhase, where string) error {
		for _, p := range phases {
			ph, ok := trace.Lookup(p.Phase, trace.NumPhases)
			if !ok || !isCycles(p.Cycles) {
				return bad("%s: phase %q unknown, or its cycles %v negative or not finite", where, p.Phase, p.Cycles)
			}
			into[ph] += p.Cycles
		}
		return nil
	}
	if err := addPhases(&cluster, sc.PhaseCycles, "phase_cycles"); err != nil {
		return err
	}
	var sum sim.Cycles
	for _, c := range cluster {
		sum += c
	}
	if !trace.SumsAgree(sum, sc.PhaseSumCycles) {
		return bad("phase_cycles sum to %.6f, phase_sum_cycles says %.6f", sum, sc.PhaseSumCycles)
	}
	if sc.CheckTotalCycles != 0 && !trace.SumsAgree(sc.PhaseSumCycles, sc.CheckTotalCycles) {
		return bad("phase_sum_cycles %.6f does not account for check_total_cycles %.6f", sc.PhaseSumCycles, sc.CheckTotalCycles)
	}
	for i, p := range sc.Procs {
		if p.Proc == "" || i > 0 && p.Proc <= sc.Procs[i-1].Proc {
			return bad("procs[%d]: proc %q empty or out of name order", i, p.Proc)
		}
		if err := addPhases(&procs, p.Phases, "proc "+p.Proc+" phases"); err != nil {
			return err
		}
		for _, c := range p.Counters {
			if _, ok := trace.Lookup(c.Counter, trace.NumCounters); !ok || c.Value == 0 {
				return bad("proc %s counters: counter %q unknown or zero", p.Proc, c.Counter)
			}
		}
	}
	for ph := range cluster {
		if !trace.SumsAgree(procs[ph], cluster[ph]) {
			return bad("procs' %q phases re-add to %.6f, phase_cycles says %.6f", trace.Phase(ph), procs[ph], cluster[ph])
		}
	}
	for _, h := range sc.Hists {
		if _, ok := trace.Lookup(h.Op, trace.Op(trace.NumOps)); !ok || h.Proc == "" || h.Count == 0 {
			return bad("hists: %s/%s: unknown op, empty proc or empty histogram", h.Proc, h.Op)
		}
		if !(isCycles(h.P50) && h.P50 <= h.P90 && h.P90 <= h.P99 && h.P99 <= h.Max && isCycles(h.Max) && isCycles(h.Mean)) {
			return bad("hists: %s/%s quantiles not monotone or not cycles: p50=%v p90=%v p99=%v max=%v mean=%v",
				h.Proc, h.Op, h.P50, h.P90, h.P99, h.Max, h.Mean)
		}
	}
	var traced sim.Cycles
	for _, mg := range sc.Migrations {
		if mg.ID == "" || mg.RootProc == "" || !isCycles(mg.TotalCycles) || mg.CriticalElapsedUs < 0 {
			return bad("migration %q: id and root_proc are required, total_cycles and critical_elapsed_us not negative", mg.ID)
		}
		if mg.Spans < 1 || mg.CriticalPathLen < 1 || mg.CriticalPathLen > mg.Spans {
			return bad("migration %q: critical_path_len %d outside [1, spans = %d]", mg.ID, mg.CriticalPathLen, mg.Spans)
		}
		traced += mg.TotalCycles
	}
	if n := len(sc.Migrations); n > 0 && totals["migrations"] != float64(n) {
		return bad("total migrations = %v does not match %d migration entries", totals["migrations"], n)
	}
	if want := sim.Cycles(totals["migration-send-cycles"] + totals["migration-recv-cycles"]); len(sc.Migrations) > 0 && !trace.SumsAgree(traced, want) {
		return bad("migrations' total_cycles sum to %.6f, migration-send-cycles + migration-recv-cycles say %.6f", traced, want)
	}
	if ss := sc.Series; ss != nil {
		if w := ss.WindowCycles; ss.Schema != trace.SeriesSchema || w == 0 || w&(w-1) != 0 || ss.MaxSamples < 1 {
			return bad("series: want schema %s, a power-of-two window_cycles and max_samples >= 1, got %q, %d, %d",
				trace.SeriesSchema, ss.Schema, w, ss.MaxSamples)
		}
		for i, p := range ss.Procs {
			if p.Proc == "" || i > 0 && p.Proc <= ss.Procs[i-1].Proc {
				return bad("series procs[%d]: proc %q empty or out of name order", i, p.Proc)
			}
			if p.Windows < p.Evicted || !isCycles(p.Cycles) {
				return bad("series proc %q: %d windows cannot include %d evicted_windows, or cycles %v out of range", p.Proc, p.Windows, p.Evicted, p.Cycles)
			}
		}
	}
	return nil
}

// JSON renders the sidecar as indented JSON with a trailing newline. It
// refuses a sidecar that fails Check, so nothing is written that
// ParseSidecar would reject.
func (sc *Sidecar) JSON() ([]byte, error) {
	if err := sc.Check(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// fillFromMetrics copies a trace snapshot into the sidecar: cluster-wide
// phase totals, the phase sum, and per-process breakdowns.
func (sc *Sidecar) fillFromMetrics(m trace.Metrics) {
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		if c := m.PhaseCycles(ph); c != 0 {
			sc.PhaseCycles = append(sc.PhaseCycles, SidecarPhase{Phase: ph.String(), Cycles: c})
		}
	}
	sc.PhaseSumCycles = m.TotalCycles()
	for i := range m.Procs {
		p := &m.Procs[i]
		proc := SidecarProc{Proc: p.Proc}
		for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
			if p.Cycles[ph] != 0 {
				proc.Phases = append(proc.Phases, SidecarPhase{Phase: ph.String(), Cycles: p.Cycles[ph]})
			}
		}
		for c := trace.Counter(0); c < trace.NumCounters; c++ {
			if p.Counters[c] != 0 {
				proc.Counters = append(proc.Counters, SidecarCounter{Counter: c.String(), Value: p.Counters[c]})
			}
		}
		sc.Procs = append(sc.Procs, proc)
		for op := trace.Op(0); int(op) < trace.NumOps; op++ {
			h := &p.Ops[op]
			if h.Count == 0 {
				continue
			}
			sc.Hists = append(sc.Hists, SidecarHist{
				Proc:  p.Proc,
				Op:    op.String(),
				Count: h.Count,
				P50:   h.Quantile(0.50),
				P90:   h.Quantile(0.90),
				P99:   h.Quantile(0.99),
				Max:   h.Max,
				Mean:  h.Mean(),
			})
		}
	}
}

// fillSeries copies the series summary when sampling was on.
func (sc *Sidecar) fillSeries(sink *trace.Sink) {
	v, ok := sink.SeriesSnapshot()
	if !ok {
		return
	}
	ss := &SidecarSeries{Schema: trace.SeriesSchema, WindowCycles: v.WindowCycles, MaxSamples: v.MaxSamples}
	for i := range v.Procs {
		p := &v.Procs[i]
		var cycles sim.Cycles
		for _, c := range p.Totals.Cycles {
			cycles += c
		}
		var last uint64
		if n := len(p.Samples); n > 0 {
			last = p.Samples[n-1].Window
		}
		ss.Procs = append(ss.Procs, SidecarSeriesProc{
			Proc:       p.Proc,
			Windows:    p.EvictedWindows + uint64(len(p.Samples)),
			Evicted:    p.EvictedWindows,
			LastWindow: last,
			Cycles:     cycles,
		})
	}
	sc.Series = ss
}

// fillMigrations appends the causal per-migration breakdown plus the
// migration cycle totals. Only traces rooted in a send span count as
// migrations (connect handshakes are excluded).
func (sc *Sidecar) fillMigrations(sink *trace.Sink, m trace.Metrics) {
	traces := sink.CausalTraces()
	for i := range traces {
		t := &traces[i]
		if len(t.Spans) == 0 || t.Spans[0].Parent != 0 || t.Spans[0].Phase != trace.PhaseSend {
			continue
		}
		sc.Migrations = append(sc.Migrations, SidecarMigration{
			ID:                t.ID.String(),
			RootProc:          t.ID.Proc,
			Spans:             len(t.Spans),
			TotalCycles:       t.TotalCycles,
			CriticalPathLen:   len(t.CriticalPath),
			CriticalElapsedUs: float64(t.CriticalElapsed),
		})
	}
	if len(sc.Migrations) == 0 {
		return
	}
	sc.Totals = append(sc.Totals,
		SidecarTotal{Name: "migrations", Value: float64(len(sc.Migrations)), Unit: "count"},
		SidecarTotal{Name: "migration-send-cycles", Value: float64(m.Op(trace.OpMigrationSend).Sum), Unit: "cycles"},
		SidecarTotal{Name: "migration-recv-cycles", Value: float64(m.Op(trace.OpMigrationRecv).Sum), Unit: "cycles"},
	)
}

// SidecarFigures lists the figures SidecarForFigure supports.
var SidecarFigures = []string{"10", "11", "12", "13", "14"}

// SidecarForFigure runs the (traced) experiment behind one figure and
// returns its sidecar. accesses tunes the fig11 trace length (0 means a
// sidecar-sized default of 20k).
func SidecarForFigure(fig string, accesses int) (*Sidecar, error) {
	switch fig {
	case "10":
		return sidecarFig10()
	case "11":
		return sidecarFig11(accesses)
	case "12":
		return sidecarFig12()
	case "13":
		return sidecarFig13()
	case "14":
		return sidecarFig14()
	default:
		return nil, fmt.Errorf("no sidecar for figure %q (have: 10, 11, 12, 13, 14)", fig)
	}
}

// sidecarFig10 traces the Table IV / Figure 10(b) 2 MB transfer at zero
// network latency. The trace phases account for every charged cycle, so
// phase_sum_cycles == SecureChannel + MMT exactly.
func sidecarFig10() (*Sidecar, error) {
	sink := trace.NewSink()
	row, err := table4Measure(sim.Gem5Profile(), 2<<20, sink)
	if err != nil {
		return nil, err
	}
	sc := &Sidecar{
		Figure:      "10",
		Profile:     sim.Gem5Profile().Name,
		Description: "2 MB secure transfer, software secure channel vs MMT closure delegation (Figure 10b zero-latency point / Table IV 2M column)",
		Totals: []SidecarTotal{
			{Name: "secure-channel", Value: float64(row.SecureChannel), Unit: "cycles"},
			{Name: "mmt-delegation", Value: float64(row.MMT), Unit: "cycles"},
			{Name: "speedup", Value: row.Speedup, Unit: "x"},
		},
		CheckTotalCycles: row.SecureChannel + row.MMT,
	}
	m := sink.Snapshot()
	sc.fillFromMetrics(m)
	sc.fillMigrations(sink, m)
	return sc, nil
}

// fig11SeriesWindow is the fixed sampling window of the fig11 sidecar
// run. A constant — never tuned per run — so the committed baseline's
// series section stays byte-stable, and a power of two (EnableSeries
// refuses any other).
const fig11SeriesWindow = 1 << 14

// sidecarFig11 traces the SPEC-like overhead sweep. Each (benchmark,
// level) cell is its own trace process; the phase sum equals the summed
// protected-memory cycles across all cells. The run samples with a
// fixed window, so the sidecar carries the series summary and the
// mmt-series/v1 artifact can be exported alongside (mmt-bench -series).
func sidecarFig11(accesses int) (*Sidecar, error) {
	sc, _, err := sidecarFig11Run(accesses)
	return sc, err
}

// sidecarFig11Run is sidecarFig11 plus the run's sink, so callers can
// export the full mmt-series/v1 artifact from the same run.
func sidecarFig11Run(accesses int) (*Sidecar, *trace.Sink, error) {
	if accesses <= 0 {
		accesses = 20_000
	}
	sink := trace.NewSink()
	if err := sink.EnableSeries(trace.SeriesConfig{WindowCycles: fig11SeriesWindow}); err != nil {
		return nil, nil, err
	}
	res, protected, err := fig11Traced(accesses, sink)
	if err != nil {
		return nil, nil, err
	}
	sc := &Sidecar{
		Figure:      "11",
		Profile:     sim.Gem5Profile().Name,
		Description: fmt.Sprintf("SPEC-like MMT access overhead by tree level, %d accesses per cell", accesses),
		Totals: []SidecarTotal{
			{Name: "avg-overhead-2-level", Value: res.Average[2], Unit: "x"},
			{Name: "avg-overhead-3-level", Value: res.Average[3], Unit: "x"},
			{Name: "avg-overhead-4-level", Value: res.Average[4], Unit: "x"},
			{Name: "protected-memory", Value: float64(protected), Unit: "cycles"},
			{Name: "read-p50-idle-cycles", Value: float64(res.Latency.Idle.Quantile(0.50)), Unit: "cycles"},
			{Name: "read-p99-idle-cycles", Value: float64(res.Latency.Idle.Quantile(0.99)), Unit: "cycles"},
			{Name: "read-p50-migration-cycles", Value: float64(res.Latency.Busy.Quantile(0.50)), Unit: "cycles"},
			{Name: "read-p99-migration-cycles", Value: float64(res.Latency.Busy.Quantile(0.99)), Unit: "cycles"},
		},
		CheckTotalCycles: protected,
	}
	m := sink.Snapshot()
	sc.fillFromMetrics(m)
	sc.fillMigrations(sink, m)
	sc.fillSeries(sink)
	return sc, sink, nil
}

// SeriesForFigure runs the figure's traced experiment and returns both
// its sidecar and, when the figure samples (fig 11 today), the
// mmt-series/v1 artifact bytes from the same run (nil otherwise).
func SeriesForFigure(fig string, accesses int) (*Sidecar, []byte, error) {
	if fig != "11" {
		sc, err := SidecarForFigure(fig, accesses)
		return sc, nil, err
	}
	sc, sink, err := sidecarFig11Run(accesses)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := sink.WriteSeriesJSON(&buf); err != nil {
		return nil, nil, err
	}
	return sc, buf.Bytes(), nil
}

// sidecarFig12 traces one representative WordCount point (256K input,
// one mapper/reducer pair) in both shuffle modes. Elapsed times are
// wall-clock maxima over machines, so they are reported as totals
// without a phase-sum check.
func sidecarFig12() (*Sidecar, error) {
	sink := trace.NewSink()
	row, err := fig12Point(256<<10, sink)
	if err != nil {
		return nil, err
	}
	sc := &Sidecar{
		Figure:      "12",
		Profile:     sim.Gem5Profile().Name,
		Description: "WordCount end-to-end, 256K input, M1R1, secure-channel vs MMT shuffle (Figure 12 point)",
		Totals: []SidecarTotal{
			{Name: "secure-channel-elapsed", Value: float64(row.Secure), Unit: "seconds"},
			{Name: "mmt-elapsed", Value: float64(row.MMT), Unit: "seconds"},
			{Name: "shuffle", Value: float64(row.ShuffleBytes), Unit: "bytes"},
			{Name: "speedup", Value: row.Speedup, Unit: "x"},
		},
	}
	sc.fillFromMetrics(sink.Snapshot())
	return sc, nil
}

// sidecarFig13 traces the M2R2 scalability cell (Figure 13b) on the
// Intel profile: baseline vs MMT shuffle over the same corpus.
func sidecarFig13() (*Sidecar, error) {
	sink := trace.NewSink()
	base, err := fig13bRun(mapreduce.Baseline, 2, sink)
	if err != nil {
		return nil, err
	}
	mmtElapsed, err := fig13bRun(mapreduce.MMT, 2, sink)
	if err != nil {
		return nil, err
	}
	sc := &Sidecar{
		Figure:      "13",
		Profile:     sim.IntelProfile().Name,
		Description: "WordCount M2R2 scalability cell, baseline vs MMT shuffle (Figure 13b)",
		Totals: []SidecarTotal{
			{Name: "baseline-elapsed", Value: float64(base), Unit: "seconds"},
			{Name: "mmt-elapsed", Value: float64(mmtElapsed), Unit: "seconds"},
		},
	}
	sc.fillFromMetrics(sink.Snapshot())
	return sc, nil
}

// sidecarFig14 reports the PageRank headline numbers at a sidecar-sized
// graph. The graph engine is not trace-instrumented, so this sidecar
// carries totals only.
func sidecarFig14() (*Sidecar, error) {
	fc := Fig14Config{Vertices: 20_000, AvgDegree: 8, Machines: 2, Iterations: 2}
	rows, cross, err := Fig14(fc)
	if err != nil {
		return nil, err
	}
	sc := &Sidecar{
		Figure:      "14",
		Profile:     sim.Gem5Profile().Name,
		Description: fmt.Sprintf("PageRank under the GAS model, %d vertices, %d cross-machine edges (Figure 14, sidecar-sized)", fc.Vertices, cross),
	}
	for _, r := range rows {
		mode := fmt.Sprintf("%v", r.Mode)
		sc.Totals = append(sc.Totals,
			SidecarTotal{Name: mode + "-elapsed", Value: float64(r.Elapsed), Unit: "seconds"},
			SidecarTotal{Name: mode + "-remote-transfer-share", Value: r.RemoteTransferShare, Unit: "x"},
		)
	}
	return sc, nil
}
