package bench

import (
	"fmt"
	"math"

	"mmt/internal/graph"
	"mmt/internal/par"
	"mmt/internal/sim"
	"mmt/internal/tree"
	"mmt/internal/workload"
)

// Fig14Row is one configuration of Figure 14: PageRank under the GAS model
// on two machines, with the remote-transfer phase carried by one of the
// three schemes.
type Fig14Row struct {
	Mode graph.Mode
	// Elapsed is the end-to-end time for the run.
	Elapsed sim.Time
	// RemoteTransferShare is the remote-transfer phase's share of total
	// cycles (paper: ~5% for MMT, ~37.5% for the secure channel).
	RemoteTransferShare float64
	// VsSecureChannel is 1 - elapsed/secureElapsed (paper: MMT +35%).
	VsSecureChannel float64
}

// Fig14Config mirrors the paper's graph: ~100k vertices with ~60k
// cross-machine edges on two machines.
type Fig14Config struct {
	Vertices   int
	AvgDegree  int
	Machines   int
	Iterations int
}

// DefaultFig14Config returns the paper-scale setup.
func DefaultFig14Config() Fig14Config {
	return Fig14Config{Vertices: 100_000, AvgDegree: 8, Machines: 2, Iterations: 3}
}

// Fig14 runs PageRank in the three modes and reports phase breakdowns and
// end-to-end gains.
func Fig14(fc Fig14Config) ([]Fig14Row, int, error) {
	g := workload.RandomGraph(14, fc.Vertices, fc.AvgDegree)
	_, cross := g.Partition(fc.Machines)
	base := graph.Config{
		Machines:             fc.Machines,
		Profile:              sim.Gem5Profile(),
		Geometry:             tree.ForLevels(3),
		PoolRegions:          6,
		GatherCyclesPerMsg:   40,
		ApplyCyclesPerVertex: 30,
		ScatterCyclesPerEdge: 12,
		Iterations:           fc.Iterations,
	}
	modes := []graph.Mode{graph.NonSecure, graph.MMT, graph.SecureChannel}
	// The three modes share only the read-only graph; each run copies the
	// config and profile and builds its own machines and network.
	outs, err := par.Map(Workers(), modes, func(_ int, mode graph.Mode) (*graph.Result, error) {
		cfg := base
		prof := *base.Profile
		cfg.Profile = &prof
		cfg.Mode = mode
		r, err := graph.PageRank(cfg, g)
		if err != nil {
			return nil, fmt.Errorf("fig14 %v: %w", mode, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, 0, err
	}
	results := make(map[graph.Mode]*graph.Result)
	for i, mode := range modes {
		results[mode] = outs[i]
	}
	secure := float64(results[graph.SecureChannel].Elapsed)
	var rows []Fig14Row
	for _, mode := range modes {
		r := results[mode]
		rows = append(rows, Fig14Row{
			Mode:                mode,
			Elapsed:             r.Elapsed,
			RemoteTransferShare: float64(r.Breakdown.RemoteTransfer) / float64(r.Breakdown.Total()),
			VsSecureChannel:     1 - float64(r.Elapsed)/secure,
		})
	}
	return rows, cross, nil
}

// RenderFig14 prints the comparison.
func RenderFig14(rows []Fig14Row, crossEdges int) string {
	header := []string{"Mode", "Elapsed", "RemoteTransfer%", "vs SecureChannel"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Mode.String(), r.Elapsed.String(),
			fmt.Sprintf("%.1f%%", 100*r.RemoteTransferShare),
			fmt.Sprintf("%+.0f%%", 100*r.VsSecureChannel),
		})
	}
	title := fmt.Sprintf("Figure 14: PageRank/GAS on 2 machines, %d cross edges (paper: MMT transfer 5%% vs 37.5%%, +35%% end-to-end)", crossEdges)
	return renderTable(title, header, out)
}

// fig14Claims checks the remote-transfer shares and the end-to-end gain.
func fig14Claims(rows []Fig14Row, cross int) []Claim {
	by := map[graph.Mode]Fig14Row{}
	for _, r := range rows {
		by[r.Mode] = r
	}
	mmt, sec, non := by[graph.MMT], by[graph.SecureChannel], by[graph.NonSecure]
	const unoverlapped = "our secure channel pays the full unoverlapped Table IV cost"
	return []Claim{
		{Name: "Cross edges >= 30k", Paper: "~60k", Holds: cross >= 30_000},
		{Name: "MMT RemoteTransfer% <= 15%", Paper: "5%", Holds: mmt.RemoteTransferShare <= 0.15},
		{Name: "SecureChannel RemoteTransfer% within 20-60%", Paper: "37.5%", Holds: within(sec.RemoteTransferShare, 0.2, 0.6)},
		{Name: "MMT vs SecureChannel within +15-60%", Paper: "+35%", Holds: within(mmt.VsSecureChannel, 0.15, 0.6)},
		{Name: "MMT Elapsed within 25% of non-secure", Paper: "MMT ~= non-secure", Holds: math.Abs(float64(mmt.Elapsed-non.Elapsed))/float64(non.Elapsed) <= 0.25},
		{Name: "SecureChannel RemoteTransfer% within 27.5-47.5%", Paper: "37.5%", Holds: within(sec.RemoteTransferShare, 0.275, 0.475), Reason: unoverlapped},
		{Name: "MMT vs SecureChannel within +25-45%", Paper: "+35%", Holds: within(mmt.VsSecureChannel, 0.25, 0.45), Reason: unoverlapped},
	}
}
