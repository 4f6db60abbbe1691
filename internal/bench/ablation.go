package bench

import (
	"fmt"
	"strings"

	"mmt/internal/sim"
	"mmt/internal/tree"
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
	cfg, err := specTrace("mcf")
	if err != nil {
		return nil, err
	}
	geo := tree.ForLevels(3)
	var rows []CacheSweepRow
	for _, cache := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10} {
		prof := sim.Gem5Profile()
		prof.MMTCacheBytes = cache
		pinRoots(prof, cfg, geo)
		over, st, err := traceRun(prof, cfg, geo, accesses, nil, "")
		if err != nil {
			return nil, err
		}
		row := CacheSweepRow{CacheBytes: cache, Overhead: over}
		if n := st.NodeHits + st.NodeMisses; n > 0 {
			row.MissRate = float64(st.NodeMisses) / float64(n)
		}
		rows = append(rows, row)
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
	cfg, err := specTrace("mcf")
	if err != nil {
		return nil, err
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
		prof := sim.Gem5Profile()
		pinRoots(prof, cfg, g.geo)
		over, _, err := traceRun(prof, cfg, g.geo, accesses, nil, "")
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

// RenderAblations runs and prints both ablations and checks their shape.
func RenderAblations(accesses int) (string, []Claim, error) {
	cache, err := CacheSweep(accesses)
	if err != nil {
		return "", nil, err
	}
	var out strings.Builder
	var rows [][]string
	cheaper, fewerMisses := true, true
	for i, r := range cache {
		rows = append(rows, []string{
			fmtSize(r.CacheBytes),
			fmt.Sprintf("%.3fx", r.Overhead),
			fmt.Sprintf("%.1f%%", 100*r.MissRate),
		})
		cheaper = cheaper && (i == 0 || r.Overhead <= cache[i-1].Overhead)
		fewerMisses = fewerMisses && (i == 0 || r.MissRate <= cache[i-1].MissRate)
	}
	out.WriteString(renderTable("Ablation: MMT node-cache size (mcf-like, 3-level)",
		[]string{"Cache", "Overhead", "Miss rate"}, rows))
	out.WriteByte('\n')

	arity, err := ArityAblation(accesses)
	if err != nil {
		return "", nil, err
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
	three := len(arity) == 3
	return out.String(), []Claim{
		{Name: "Overhead never rises as the cache grows", Paper: "32 KB node cache (Table II)", Holds: cheaper},
		{Name: "Miss rate never rises as the cache grows", Paper: "32 KB node cache (Table II)", Holds: fewerMisses},
		{Name: "MMT size rises with leaf arity", Paper: "leaf arity 64 (§V-A2)",
			Holds: three && arity[0].MMTSize < arity[1].MMTSize && arity[1].MMTSize < arity[2].MMTSize},
		{Name: "Meta overhead at leaf-128 <= leaf-32", Paper: "leaf arity 64 (§V-A2)", Holds: three && arity[0].MetaFraction >= arity[2].MetaFraction},
		{Name: "leaf-64 MMT size is 2M", Paper: "2 MB closures", Holds: three && arity[1].MMTSize == 2<<20},
	}, nil
}
