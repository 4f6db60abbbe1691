package bench

import "mmt/internal/sim"

// Claim is one statement of the paper's evaluation checked against the
// rows an experiment just produced. A claim the reproduction is known to
// miss carries the reason; every other claim must hold.
type Claim struct {
	Name   string // what is checked, with its bound
	Paper  string // the paper's wording or value
	Holds  bool
	Reason string // why the reproduction misses it ("" if it must hold)
}

// Experiment is one table or figure group that `mmt-bench -exp Name`
// prints. Run renders its tables and checks its claims on the same rows;
// accesses is the trace length for fig11 and ablation (0 takes their
// default).
type Experiment struct {
	Name string
	Desc string
	Run  func(accesses int) (string, []Claim, error)
}

// Output runs e and returns what `mmt-bench -exp Name` prints for it: its
// tables, then its claims as a `| Claim | Paper | Holds |` table.
func (e Experiment) Output(accesses int) (string, []Claim, error) {
	out, claims, err := e.Run(accesses)
	if err != nil || len(claims) == 0 {
		return out, claims, err
	}
	rows := make([][]string, len(claims))
	for i, c := range claims {
		holds := "yes"
		if !c.Holds {
			holds = "no"
			if c.Reason != "" {
				holds += ": " + c.Reason
			}
		}
		rows[i] = []string{c.Name, c.Paper, holds}
	}
	return out + "\n" + renderTable("Claims: "+e.Name, []string{"Claim", "Paper", "Holds"}, rows), claims, nil
}

// within reports whether lo <= x <= hi.
func within(x, lo, hi float64) bool { return lo <= x && x <= hi }

// Experiments lists the paper's evaluation in print order. EXPERIMENTS.md
// holds each one's output between `<!-- mmt-bench -exp Name -->` and
// `<!-- /mmt-bench -->`, and a test regenerates every block from here
// and checks every claim.
var Experiments = []Experiment{
	{"table1", "interconnect throughput (Table I)", func(int) (string, []Claim, error) {
		return RenderTable1(), nil, nil
	}},
	{"config", "testbed configurations (Tables II/III)", func(int) (string, []Claim, error) {
		return RenderConfigs(), nil, nil
	}},
	{"table4", "secure channel vs MMT delegation, Gem5 (Table IV left)", func(int) (string, []Claim, error) {
		rows, err := Table4Gem5()
		if err != nil {
			return "", nil, err
		}
		return RenderTable4("Table IV (Gem5)", sim.Gem5Profile(), rows), table4Claims(rows), nil
	}},
	{"table4-intel", "secure channel vs MMT delegation, Intel AES-NI (Table IV right)", func(int) (string, []Claim, error) {
		rows, err := Table4Intel()
		if err != nil {
			return "", nil, err
		}
		return RenderTable4("Table IV (Intel)", sim.IntelProfile(), rows), table4IntelClaims(rows), nil
	}},
	{"fig10a", "max throughput: AES-GCM vs RDMA vs MMT (Figure 10a)", func(int) (string, []Claim, error) {
		rows := Fig10a()
		return RenderFig10a(rows), fig10aClaims(rows), nil
	}},
	{"fig10b", "end-to-end latency vs network latency (Figure 10b)", func(int) (string, []Claim, error) {
		rows, err := Fig10b()
		if err != nil {
			return "", nil, err
		}
		return RenderFig10b(rows), fig10bClaims(rows), nil
	}},
	{"fig11", "SPEC-like overhead by tree level (Figure 11) and tree-level trade-offs (Table V)", func(accesses int) (string, []Claim, error) {
		res, err := Fig11(accesses)
		if err != nil {
			return "", nil, err
		}
		t5 := Table5(res)
		return RenderFig11(res) + "\n" + RenderTable5(t5), fig11Claims(res, t5), nil
	}},
	{"fig12", "WordCount end-to-end by transferred size (Figure 12)", func(int) (string, []Claim, error) {
		rows, err := Fig12()
		if err != nil {
			return "", nil, err
		}
		return RenderFig12(rows), fig12Claims(rows), nil
	}},
	{"fig13a", "MapReduce normalized performance by comm share (Figure 13a)", func(int) (string, []Claim, error) {
		rows, err := Fig13a()
		if err != nil {
			return "", nil, err
		}
		return RenderFig13a(rows), fig13aClaims(rows), nil
	}},
	{"fig13b", "MnRn scalability (Figure 13b)", func(int) (string, []Claim, error) {
		rows, err := Fig13b()
		if err != nil {
			return "", nil, err
		}
		return RenderFig13b(rows), fig13bClaims(rows), nil
	}},
	{"fig14", "PageRank under the GAS model (Figure 14)", func(int) (string, []Claim, error) {
		rows, cross, err := Fig14(DefaultFig14Config())
		if err != nil {
			return "", nil, err
		}
		return RenderFig14(rows, cross), fig14Claims(rows, cross), nil
	}},
	{"ablation", "tree geometry and cache-size ablations (beyond the paper)", RenderAblations},
	{"extension", "counter-width and packet-loss extensions (beyond the paper)", func(int) (string, []Claim, error) {
		return RenderExtendedAblations()
	}},
}
