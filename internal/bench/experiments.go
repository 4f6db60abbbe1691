package bench

import "mmt/internal/sim"

// Experiment is one table or figure group that `mmt-bench -exp Name`
// prints. Run renders it; accesses is the trace length for fig11 and
// ablation (0 takes their default).
type Experiment struct {
	Name string
	Desc string
	Run  func(accesses int) (string, error)
}

// Experiments lists the paper's evaluation in print order. EXPERIMENTS.md
// holds each one's output between `<!-- mmt-bench -exp Name -->` and
// `<!-- /mmt-bench -->`, and a test regenerates every block from here.
var Experiments = []Experiment{
	{"table1", "interconnect throughput (Table I)", func(int) (string, error) {
		return RenderTable1(), nil
	}},
	{"config", "testbed configurations (Tables II/III)", func(int) (string, error) {
		return RenderConfigs(), nil
	}},
	{"table4", "secure channel vs MMT delegation, Gem5 (Table IV left)", func(int) (string, error) {
		rows, err := Table4Gem5()
		if err != nil {
			return "", err
		}
		return RenderTable4("Table IV (Gem5)", sim.Gem5Profile(), rows), nil
	}},
	{"table4-intel", "secure channel vs MMT delegation, Intel AES-NI (Table IV right)", func(int) (string, error) {
		rows, err := Table4Intel()
		if err != nil {
			return "", err
		}
		return RenderTable4("Table IV (Intel)", sim.IntelProfile(), rows), nil
	}},
	{"fig10a", "max throughput: AES-GCM vs RDMA vs MMT (Figure 10a)", func(int) (string, error) {
		return RenderFig10a(Fig10a()), nil
	}},
	{"fig10b", "end-to-end latency vs network latency (Figure 10b)", func(int) (string, error) {
		rows, err := Fig10b()
		if err != nil {
			return "", err
		}
		return RenderFig10b(rows), nil
	}},
	{"fig11", "SPEC-like overhead by tree level (Figure 11) and tree-level trade-offs (Table V)", func(accesses int) (string, error) {
		res, err := Fig11(accesses)
		if err != nil {
			return "", err
		}
		return RenderFig11(res) + "\n" + RenderTable5(Table5(res)), nil
	}},
	{"fig12", "WordCount end-to-end by transferred size (Figure 12)", func(int) (string, error) {
		rows, err := Fig12()
		if err != nil {
			return "", err
		}
		return RenderFig12(rows), nil
	}},
	{"fig13a", "MapReduce normalized performance by comm share (Figure 13a)", func(int) (string, error) {
		rows, err := Fig13a()
		if err != nil {
			return "", err
		}
		return RenderFig13a(rows), nil
	}},
	{"fig13b", "MnRn scalability (Figure 13b)", func(int) (string, error) {
		rows, err := Fig13b()
		if err != nil {
			return "", err
		}
		return RenderFig13b(rows), nil
	}},
	{"fig14", "PageRank under the GAS model (Figure 14)", func(int) (string, error) {
		rows, cross, err := Fig14(DefaultFig14Config())
		if err != nil {
			return "", err
		}
		return RenderFig14(rows, cross), nil
	}},
	{"ablation", "tree geometry and cache-size ablations (beyond the paper)", RenderAblations},
	{"extension", "counter-width and packet-loss extensions (beyond the paper)", func(int) (string, error) {
		return RenderExtendedAblations()
	}},
}
