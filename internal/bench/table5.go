package bench

import (
	"fmt"

	"mmt/internal/tree"
)

// Table5Row is one tree depth of the paper's Table V: the SoC root storage
// for 2 GB of secure memory, the MMT granularity (closure size), and the
// average SPEC-like overhead from the Figure 11 experiment.
type Table5Row struct {
	Levels   int
	RootSize int // bytes of SoC storage for all roots over 2 GB
	MMTSize  int // protected bytes per MMT (the transfer granularity)
	Overhead float64
}

// Table5 computes the structural columns analytically from the geometry
// and takes the overhead column from the Figure 11 run it is given.
func Table5(fig11 *Fig11Result) []Table5Row {
	const secureMemory = 2 << 30
	var rows []Table5Row
	for _, level := range Fig11Levels {
		g := tree.ForLevels(level)
		rows = append(rows, Table5Row{
			Levels:   level,
			RootSize: secureMemory / g.DataSize() * g.RootSoCBytes(),
			MMTSize:  g.DataSize(),
			Overhead: fig11.Average[level],
		})
	}
	return rows
}

// RenderTable5 prints the rows in the paper's layout (paper: 256K/64K/1.07,
// 8K/2M/1.12, 256B/64M/1.21).
func RenderTable5(rows []Table5Row) string {
	header := []string{"Tree level", "Root Size", "MMT Size", "Overhead"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d-level", r.Levels),
			fmtSize(r.RootSize),
			fmtSize(r.MMTSize),
			fmt.Sprintf("%.2f", r.Overhead),
		})
	}
	return renderTable("Table V: tree level trade-offs (paper: 256K/64K/1.07, 8K/2M/1.12, 256B/64M/1.21)", header, out)
}
