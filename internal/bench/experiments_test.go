package bench

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The paper tables in EXPERIMENTS.md are mmt-bench output, pasted whole:
// each experiment's stdout sits between these two marker lines.
const (
	docPath     = "../../EXPERIMENTS.md"
	openMarker  = "<!-- mmt-bench -exp "
	closeMarker = "<!-- /mmt-bench -->"
)

// doc is EXPERIMENTS.md cut at its markers: each name's block bodies,
// the names whose block never closes, and the faults found while cutting
// (a block with no closing marker, a block naming no experiment).
type doc struct {
	blocks   map[string][]string
	unclosed map[string]bool
	errs     []error
}

func parseDoc(text string, exps []Experiment) doc {
	d := doc{blocks: map[string][]string{}, unclosed: map[string]bool{}}
	var order []string
	name, body, open := "", "", false
	unterminated := func() {
		d.unclosed[name] = true
		d.errs = append(d.errs, fmt.Errorf("%s: block %s has no closing %s", docPath, name, closeMarker))
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, openMarker); ok {
			if open {
				unterminated()
			}
			name, body, open = strings.TrimSuffix(strings.TrimRight(rest, "\n"), " -->"), "", true
			continue
		}
		if !open {
			continue
		}
		if strings.TrimRight(line, "\n") == closeMarker {
			if d.blocks[name] == nil {
				order = append(order, name)
			}
			d.blocks[name] = append(d.blocks[name], body)
			open = false
			continue
		}
		body += line
	}
	if open {
		unterminated()
	}
	known := map[string]bool{}
	for _, e := range exps {
		known[e.Name] = true
	}
	for _, n := range order {
		if !known[n] {
			d.errs = append(d.errs, fmt.Errorf("%s: block %s names no experiment (see mmt-bench -list)", docPath, n))
		}
	}
	return d
}

// check runs e once and returns one error per fault, each naming e: no
// block or several, a block that differs from what `mmt-bench -exp` prints
// (with the fresh block to paste), and, naming the claim too, a claim
// without a reason that does not hold or a claim with one that holds.
func (d doc) check(e Experiment) []error {
	if d.unclosed[e.Name] {
		return nil
	}
	switch n := len(d.blocks[e.Name]); {
	case n == 0:
		return []error{fmt.Errorf("%s: no block for experiment %s: add %s%s --> … %s", docPath, e.Name, openMarker, e.Name, closeMarker)}
	case n > 1:
		return []error{fmt.Errorf("%s: experiment %s has %d blocks, want one", docPath, e.Name, n)}
	}
	out, claims, err := e.Output(0)
	if err != nil {
		return []error{fmt.Errorf("experiment %s: %v", e.Name, err)}
	}
	var errs []error
	// The block is the command's stdout: the output and fmt.Println's newline.
	if have, fresh := d.blocks[e.Name][0], out+"\n"; have != fresh {
		errs = append(errs, fmt.Errorf("%s: block %s differs from `go run ./cmd/mmt-bench -exp %s` at line %d; "+
			"if the change is meant, paste this block and say why in CHANGES.md:\n%s",
			docPath, e.Name, e.Name, firstDiffLine(have, fresh), fresh))
	}
	for _, c := range claims {
		switch {
		case !c.Holds && c.Reason == "":
			errs = append(errs, fmt.Errorf("experiment %s: claim %q does not hold (paper: %s)", e.Name, c.Name, c.Paper))
		case c.Holds && c.Reason != "":
			errs = append(errs, fmt.Errorf("experiment %s: claim %q now holds but is marked as a known deviation (%s): "+
				"drop the reason and the EXPERIMENTS.md prose that explains it", e.Name, c.Name, c.Reason))
		}
	}
	return errs
}

// checkDoc is the whole check of text against exps, every experiment run
// once.
func checkDoc(text string, exps []Experiment) []error {
	d := parseDoc(text, exps)
	errs := d.errs
	for _, e := range exps {
		errs = append(errs, d.check(e)...)
	}
	return errs
}

// firstDiffLine is the 1-based line of a and b where they first differ.
func firstDiffLine(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			return i + 1
		}
	}
	return len(la) + 1
}

// runs holds each experiment's one run in this test binary, at its default
// size: TestExperimentsDoc and the claim tests in ablation_test.go share it.
var runs sync.Map

// runOnce is e with its Run replaced by that shared run's result. The run
// fans out across two workers: its block must still be what the serial
// mmt-bench -exp prints, and under -race every par work unit of every
// experiment runs beside another, so one that shares a clock, a causal
// context or any other state with its siblings is reported.
func runOnce(e Experiment) Experiment {
	f, _ := runs.LoadOrStore(e.Name, sync.OnceValue(func() Experiment {
		SetWorkers(2)
		defer SetWorkers(1)
		out, claims, err := e.Run(0)
		e.Run = func(int) (string, []Claim, error) { return out, claims, err }
		return e
	}))
	return f.(func() Experiment)()
}

// requireClaims fails unless the experiment called name, run through
// runOnce, returns each named claim and it holds. It pins a claim row by
// name, so that one dropped from the experiment (and from its pasted
// block) still fails a test.
func requireClaims(t *testing.T, name string, claims ...string) {
	t.Helper()
	if testing.Short() {
		t.Skipf("runs experiment %s in -short mode", name)
	}
	i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.Name == name })
	if i < 0 {
		t.Fatalf("no experiment %s", name)
	}
	_, got, err := runOnce(Experiments[i]).Run(0)
	if err != nil {
		t.Fatalf("experiment %s: %v", name, err)
	}
	for _, want := range claims {
		j := slices.IndexFunc(got, func(c Claim) bool { return c.Name == want })
		switch {
		case j < 0:
			t.Errorf("experiment %s: no claim %q", name, want)
		case !got[j].Holds:
			t.Errorf("experiment %s: claim %q does not hold (paper: %s)", name, want, got[j].Paper)
		}
	}
}

// TestExperimentsDoc: every paper table in EXPERIMENTS.md is byte for byte
// what mmt-bench prints today, every experiment has exactly one block, and
// every claim holds unless it carries the reason it does not. Each
// experiment runs once, in its own subtest (or earlier, in a claim test).
func TestExperimentsDoc(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (about 15 s) in -short mode")
	}
	text, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	d := parseDoc(string(text), Experiments)
	for _, err := range d.errs {
		t.Error(err)
	}
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			if raceEnabled && e.Name == "table4-intel" {
				t.Skip("32-128MB transfers are ~10x slower under the race detector; table4 runs the same path at 2K-2M")
			}
			for _, err := range d.check(runOnce(e)) {
				t.Error(err)
			}
		})
	}
}

// TestCheckDoc: the doc check refuses each way a block or a claim can go
// wrong, and says which experiment (and claim) it concerns.
func TestCheckDoc(t *testing.T) {
	holds := Claim{Name: "y is 7", Paper: "seven", Holds: true}
	fakes := func(c Claim) []Experiment {
		return []Experiment{
			{Name: "alpha", Run: func(int) (string, []Claim, error) { return "## A\n\n| x |\n|---|\n| 1.25 |\n", nil, nil }},
			{Name: "beta", Run: func(int) (string, []Claim, error) { return "## B\n\n| y |\n|---|\n| 7 |\n", []Claim{c}, nil }},
		}
	}
	block := func(name, body string) string {
		return openMarker + name + " -->\n" + body + closeMarker + "\n"
	}
	alpha := block("alpha", "## A\n\n| x |\n|---|\n| 1.25 |\n\n")
	betaOut := "## B\n\n| y |\n|---|\n| 7 |\n\n## Claims: beta\n\n| Claim | Paper | Holds |\n|---|---|---|\n| y is 7 | seven | yes |\n\n"
	beta := block("beta", betaOut)
	for _, tc := range []struct {
		name, doc string
		claim     Claim
		want      string // "" for a clean document, else in the one error
	}{
		{"clean", "# Doc\n\n" + alpha + "\nprose\n\n" + beta, holds, ""},
		{"flipped digit", alpha + strings.Replace(beta, "| 7 |", "| 8 |", 1), holds, "block beta differs from `go run ./cmd/mmt-bench -exp beta` at line 5"},
		{"missing block", alpha, holds, "no block for experiment beta"},
		{"unknown name", alpha + beta + block("gamma", "## C\n"), holds, "block gamma names no experiment"},
		{"unterminated", alpha + strings.TrimSuffix(beta, closeMarker+"\n"), holds, "block beta has no closing"},
		{"open inside a block", strings.TrimSuffix(alpha, closeMarker+"\n") + beta, holds, "block alpha has no closing"},
		{"duplicate block", alpha + beta + beta, holds, "experiment beta has 2 blocks"},
		{"broken claim", alpha + strings.Replace(beta, "| yes |", "| no |", 1),
			Claim{Name: "y is 7", Paper: "seven"}, `experiment beta: claim "y is 7" does not hold`},
		{"deviation that holds", alpha + beta,
			Claim{Name: "y is 7", Paper: "seven", Holds: true, Reason: "known"}, `experiment beta: claim "y is 7" now holds`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := checkDoc(tc.doc, fakes(tc.claim))
			if tc.want == "" {
				if len(errs) > 0 {
					t.Fatalf("clean document refused: %v", errs)
				}
				return
			}
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), tc.want) {
				t.Fatalf("errors %v, want one containing %q", errs, tc.want)
			}
		})
	}
	// A differing block comes with the fresh one to paste.
	errs := checkDoc(alpha+strings.Replace(beta, "| 7 |", "| 8 |", 1), fakes(holds))
	if len(errs) != 1 || !strings.HasSuffix(errs[0].Error(), "\n"+betaOut) {
		t.Fatalf("mismatch does not end in the fresh block: %v", errs)
	}
}
