package bench

import (
	"fmt"

	"mmt/internal/engine"
	"mmt/internal/mem"
	"mmt/internal/par"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
	"mmt/internal/workload"
)

// Fig11Levels are the tree depths Figure 11 sweeps.
var Fig11Levels = []int{2, 3, 4}

// Fig11Row is one benchmark's slowdown (protected / unprotected execution
// time) at each tree level.
type Fig11Row struct {
	Benchmark string
	Overhead  map[int]float64 // level -> slowdown
}

// Fig11Result carries the rows plus the per-level averages the paper
// quotes (1.07 / 1.12 / 1.21 for 2/3/4 levels), and the read-latency
// contention scenario (fig11latency.go).
type Fig11Result struct {
	Rows     []Fig11Row
	Average  map[int]float64
	Accesses int
	Latency  *Fig11Latency
}

// Fig11 runs every SPEC-like trace through the MMT controller at each tree
// level and reports slowdown versus unprotected DRAM. accesses is the
// trace length per run (0 means the default 200k).
func Fig11(accesses int) (*Fig11Result, error) {
	res, _, err := fig11Traced(accesses, nil)
	return res, err
}

// fig11Traced is Fig11 with an optional trace sink: each (benchmark,
// level) cell records its measured phase into the "<name>/L<level>"
// process. It also returns the summed protected-memory cycles across all
// cells, which equals the sink's phase totals by construction (every
// engine charge is mirrored into exactly one phase).
//
// The cells are independent — each one builds its own profile, memory,
// controller and (when tracing) sink — so they fan out across Workers()
// goroutines. Merging happens serially in cfg-major cell order, which
// reproduces the serial loop's float-addition order and trace-process
// registration order exactly.
func fig11Traced(accesses int, sink *trace.Sink) (*Fig11Result, sim.Cycles, error) {
	if accesses <= 0 {
		accesses = 200_000
	}
	res := &Fig11Result{Average: make(map[int]float64), Accesses: accesses}
	traces := workload.SPECTraces()

	type cell struct {
		cfg   workload.TraceConfig
		level int
	}
	type cellOut struct {
		over float64
		mem  sim.Cycles
		sink *trace.Sink
	}
	cells := make([]cell, 0, len(traces)*len(Fig11Levels))
	for _, cfg := range traces {
		for _, level := range Fig11Levels {
			cells = append(cells, cell{cfg, level})
		}
	}
	outs, err := par.Map(Workers(), cells, func(_ int, c cell) (cellOut, error) {
		var cs *trace.Sink
		if sink != nil {
			cs = trace.NewSink()
			// Cells inherit the root sink's sampling config: window
			// indices come off the simulated clocks, so every worker
			// records identical samples and the serial merge reproduces
			// a single-sink run exactly.
			if cfg, ok := sink.SeriesConfigured(); ok {
				if err := cs.EnableSeries(cfg); err != nil {
					return cellOut{}, err
				}
			}
		}
		prof, geo := sim.Gem5Profile(), tree.ForLevels(c.level)
		pinRoots(prof, c.cfg, geo)
		over, st, err := traceRun(prof, c.cfg, geo, accesses, cs, fmt.Sprintf("%s/L%d", c.cfg.Name, c.level))
		return cellOut{over, st.Cycles, cs}, err
	})
	if err != nil {
		return nil, 0, err
	}

	sums := make(map[int]float64)
	var protected sim.Cycles
	for i, c := range cells {
		if c.level == Fig11Levels[0] {
			res.Rows = append(res.Rows, Fig11Row{Benchmark: c.cfg.Name, Overhead: make(map[int]float64)})
		}
		row := &res.Rows[len(res.Rows)-1]
		row.Overhead[c.level] = outs[i].over
		sums[c.level] += outs[i].over
		protected += outs[i].mem
		sink.Merge(outs[i].sink)
	}
	for _, level := range Fig11Levels {
		res.Average[level] = sums[level] / float64(len(traces))
	}
	// The latency scenario runs serially after the sweep (its two passes
	// share one controller by design); its charged cycles join the
	// figure's protected total so the sidecar's phase-sum check covers it.
	lat, latCycles, err := fig11Latency(accesses, sink)
	if err != nil {
		return nil, 0, err
	}
	res.Latency = lat
	protected += latCycles
	return res, protected, nil
}

// specTrace returns the SPEC-like trace of that name.
func specTrace(name string) (workload.TraceConfig, error) {
	for _, c := range workload.SPECTraces() {
		if c.Name == name {
			return c, nil
		}
	}
	return workload.TraceConfig{}, fmt.Errorf("bench: no SPEC-like trace %q", name)
}

// pinRoots sizes prof's SoC root table so that every live root of the
// trace's footprint stays resident, as Table V provisions (256K for
// 2-level over 2 GB), rather than keeping the 3-level default.
func pinRoots(prof *sim.Profile, cfg workload.TraceConfig, geo tree.Geometry) {
	regions := (cfg.FootprintLines*64 + geo.DataSize() - 1) / geo.DataSize()
	prof.RootTableSoC = (regions + 1) * 8
}

// traceRun is the Figure 11 method: the trace's execution time with the
// MMT controller over the time with plain DRAM, on one profile and
// geometry. It also returns the controller's stats for the measured
// accesses. The measured phase records into sink's process proc (a nil
// sink records nothing), sampled by the sink's window when it has one.
func traceRun(prof *sim.Profile, cfg workload.TraceConfig, geo tree.Geometry, accesses int, sink *trace.Sink, proc string) (float64, engine.Stats, error) {
	// Access() is a pure timing path: it moves only the node cache and the
	// cycle counters, so the trace can cover a paper-scale (multi-GB)
	// footprint without backing memory. The controller gets one real
	// region; trace region indices are virtual cache-key coordinates.
	pm := mem.New(mem.Config{
		Size:          geo.DataSize(),
		RegionSize:    geo.DataSize(),
		MetaPerRegion: geo.MetaSize(),
	})
	ctl, err := engine.New(pm, geo, nil, prof)
	if err != nil {
		return 0, engine.Stats{}, err
	}

	// Warm the node cache with a prefix of the trace, then measure. The
	// probe attaches only after the warm-up reset so the trace phases
	// account for exactly the measured cycles.
	tr := workload.NewTrace(cfg, 11)
	lines := geo.Lines()
	for i := 0; i < accesses/10; i++ {
		line, w := tr.Next()
		ctl.Access(line/lines, line%lines, w)
	}
	ctl.ResetStats()
	pr := sink.Probe(proc)
	ctl.SetTrace(pr)
	if sc, ok := sink.SeriesConfigured(); ok {
		ctl.Clock().SetWindowHook(sc.WindowCycles, pr.ObserveWindow)
	}
	for i := 0; i < accesses; i++ {
		line, w := tr.Next()
		ctl.Access(line/lines, line%lines, w)
	}
	st := ctl.Stats()
	compute := cfg.ComputeCyclesPerAccess * float64(accesses)
	baseline := compute + float64(accesses)*float64(prof.DRAMAccess)
	return (compute + float64(st.Cycles)) / baseline, st, nil
}

// RenderFig11 prints the per-benchmark overheads and the averages.
func RenderFig11(res *Fig11Result) string {
	header := []string{"Benchmark", "2-level", "3-level", "4-level"}
	var out [][]string
	for _, r := range res.Rows {
		out = append(out, []string{
			r.Benchmark,
			fmt.Sprintf("%.3fx", r.Overhead[2]),
			fmt.Sprintf("%.3fx", r.Overhead[3]),
			fmt.Sprintf("%.3fx", r.Overhead[4]),
		})
	}
	out = append(out, []string{
		"AVERAGE",
		fmt.Sprintf("%.3fx", res.Average[2]),
		fmt.Sprintf("%.3fx", res.Average[3]),
		fmt.Sprintf("%.3fx", res.Average[4]),
	})
	s := renderTable("Figure 11: SPEC-like overhead by tree level (paper averages: 1.07 / 1.12 / 1.21)", header, out)
	if lat := res.Latency; lat != nil {
		q := func(h *trace.Histogram) []string {
			return []string{fmt.Sprint(h.Quantile(0.50)), fmt.Sprint(h.Quantile(0.99)), fmt.Sprint(h.Max)}
		}
		s += "\n" + renderTable(fmt.Sprintf("Figure 11: read latency under migration (%d reads, %d delegations)", lat.Reads, lat.Migrations),
			[]string{"Reads", "p50 cycles", "p99 cycles", "max cycles"},
			[][]string{append([]string{"idle"}, q(&lat.Idle)...), append([]string{"with migration"}, q(&lat.Busy)...)})
	}
	return s
}

// fig11Claims checks Figure 11's averages and Table V's structural columns.
func fig11Claims(res *Fig11Result, t5 []Table5Row) []Claim {
	slower := len(res.Rows) >= 10
	for _, r := range res.Rows {
		for _, level := range Fig11Levels {
			slower = slower && r.Overhead[level] >= 1
		}
	}
	sizes := len(t5) == 3
	for i, want := range [][2]int{{256 << 10, 64 << 10}, {8 << 10, 2 << 20}, {256, 64 << 20}} {
		sizes = sizes && t5[i].RootSize == want[0] && t5[i].MMTSize == want[1]
	}
	a2, a3, a4 := res.Average[2], res.Average[3], res.Average[4]
	return []Claim{
		{Name: "Ten or more benchmarks, each >= 1x at every level", Paper: "protection only slows", Holds: slower},
		{Name: "2-level average within 1.03-1.12x", Paper: "1.07", Holds: within(a2, 1.03, 1.12)},
		{Name: "3-level average within 1.08-1.17x", Paper: "1.12", Holds: within(a3, 1.08, 1.17)},
		{Name: "Averages rise with depth", Paper: "1.07 < 1.12 < 1.21", Holds: a2 < a3 && a3 < a4},
		{Name: "4-level average within 1.17-1.26x", Paper: "1.21", Holds: within(a4, 1.17, 1.26),
			Reason: "the 4th level's upper nodes stay in the 32 KB node cache"},
		{Name: "Table V root and MMT sizes", Paper: "256K/64K, 8K/2M, 256B/64M", Holds: sizes},
	}
}
