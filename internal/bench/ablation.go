package bench

import (
	"fmt"
	"strings"

	"mmt/internal/engine"
	"mmt/internal/mem"
	"mmt/internal/sim"
	"mmt/internal/tree"
	"mmt/internal/workload"
)

// The ablations go beyond the paper's figures and probe two design choices
// DESIGN.md calls out: the on-chip node-cache size (Table II fixes 32 KB)
// and the leaf arity (§V-A2 fixes 64).

// CacheSweepRow is one cache size's overhead for a memory-bound workload.
type CacheSweepRow struct {
	CacheBytes int
	Overhead   float64 // 3-level slowdown on the mcf-like trace
	MissRate   float64 // node-cache miss rate
}

// CacheSweep reruns the Figure 11 measurement for the mcf-like trace at
// 3 levels across node-cache sizes.
func CacheSweep(accesses int) ([]CacheSweepRow, error) {
	if accesses <= 0 {
		accesses = 200_000
	}
	var cfg workload.TraceConfig
	for _, c := range workload.SPECTraces() {
		if c.Name == "mcf" {
			cfg = c
		}
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("bench: mcf trace missing")
	}
	var rows []CacheSweepRow
	for _, cache := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10} {
		prof := sim.Gem5Profile()
		prof.MMTCacheBytes = cache
		over, miss, err := traceRun(prof, cfg, tree.ForLevels(3), accesses)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CacheSweepRow{CacheBytes: cache, Overhead: over, MissRate: miss})
	}
	return rows, nil
}

// ArityRow compares leaf arities at fixed depth: protection granularity,
// closure metadata overhead and measured slowdown.
type ArityRow struct {
	Label        string
	Geometry     tree.Geometry
	MMTSize      int
	MetaFraction float64
	Overhead     float64
}

// ArityAblation compares the paper's leaf-64 layout against narrower and
// wider leaves at 3 levels on the mcf-like trace.
func ArityAblation(accesses int) ([]ArityRow, error) {
	if accesses <= 0 {
		accesses = 200_000
	}
	var cfg workload.TraceConfig
	for _, c := range workload.SPECTraces() {
		if c.Name == "mcf" {
			cfg = c
		}
	}
	geos := []struct {
		label string
		geo   tree.Geometry
	}{
		{"leaf-32", tree.Geometry{Arities: []int{16, 32, 32}}},
		{"leaf-64 (paper)", tree.ForLevels(3)},
		{"leaf-128", tree.Geometry{Arities: []int{16, 32, 128}}},
	}
	var rows []ArityRow
	for _, g := range geos {
		over, _, err := traceRun(sim.Gem5Profile(), cfg, g.geo, accesses)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ArityRow{
			Label:        g.label,
			Geometry:     g.geo,
			MMTSize:      g.geo.DataSize(),
			MetaFraction: float64(g.geo.MetaSize()) / float64(g.geo.DataSize()),
			Overhead:     over,
		})
	}
	return rows, nil
}

// traceRun measures the slowdown and node-cache miss rate of one trace on
// one geometry/profile (the fig11 kernel, parameterized).
func traceRun(prof *sim.Profile, cfg workload.TraceConfig, geo tree.Geometry, accesses int) (overhead, missRate float64, err error) {
	// Pin every live root, as Table V provisions (see fig11Run).
	regions := (cfg.FootprintLines*64 + geo.DataSize() - 1) / geo.DataSize()
	prof = prof.Clone()
	prof.RootTableSoC = (regions + 1) * 8
	pm := mem.New(mem.Config{Size: geo.DataSize(), RegionSize: geo.DataSize(), MetaPerRegion: geo.MetaSize()})
	ctl, err := engine.New(pm, geo, nil, prof)
	if err != nil {
		return 0, 0, err
	}
	tr := workload.NewTrace(cfg, 11)
	lines := geo.Lines()
	for i := 0; i < accesses/10; i++ {
		line, w := tr.Next()
		ctl.Access(line/lines, line%lines, w)
	}
	ctl.ResetStats()
	for i := 0; i < accesses; i++ {
		line, w := tr.Next()
		ctl.Access(line/lines, line%lines, w)
	}
	st := ctl.Stats()
	compute := cfg.ComputeCyclesPerAccess * float64(accesses)
	baseline := compute + float64(accesses)*float64(prof.DRAMAccess)
	overhead = (compute + float64(st.Cycles)) / baseline
	if st.NodeHits+st.NodeMisses > 0 {
		missRate = float64(st.NodeMisses) / float64(st.NodeHits+st.NodeMisses)
	}
	return overhead, missRate, nil
}

// RenderAblations runs and prints both ablations.
func RenderAblations(accesses int) (string, error) {
	cache, err := CacheSweep(accesses)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	var rows [][]string
	for _, r := range cache {
		rows = append(rows, []string{
			fmtSize(r.CacheBytes),
			fmt.Sprintf("%.3fx", r.Overhead),
			fmt.Sprintf("%.1f%%", 100*r.MissRate),
		})
	}
	out.WriteString(renderTable("Ablation: MMT node-cache size (mcf-like, 3-level)",
		[]string{"Cache", "Overhead", "Miss rate"}, rows))
	out.WriteByte('\n')

	arity, err := ArityAblation(accesses)
	if err != nil {
		return "", err
	}
	rows = nil
	for _, r := range arity {
		rows = append(rows, []string{
			r.Label,
			fmtSize(r.MMTSize),
			fmt.Sprintf("%.1f%%", 100*r.MetaFraction),
			fmt.Sprintf("%.3fx", r.Overhead),
		})
	}
	out.WriteString(renderTable("Ablation: leaf arity at 3 levels (mcf-like)",
		[]string{"Layout", "MMT size", "Meta overhead", "Slowdown"}, rows))
	return out.String(), nil
}
