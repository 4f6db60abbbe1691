package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// The paper tables in EXPERIMENTS.md are mmt-bench output, pasted whole:
// each experiment's stdout sits between these two marker lines.
const (
	docPath     = "../../EXPERIMENTS.md"
	openMarker  = "<!-- mmt-bench -exp "
	closeMarker = "<!-- /mmt-bench -->"
)

// stdout is what `go run ./cmd/mmt-bench -exp NAME` prints for e: its
// rendering and the newline fmt.Println adds.
func stdout(e Experiment) (string, error) {
	out, err := e.Run(0)
	return out + "\n", err
}

// checkDoc compares every marked block of doc with the fresh output of
// the experiment it names. It returns one error per
// fault, and every error names its experiment: a block that differs (with
// the fresh block to paste), an experiment with no block or with several,
// a block naming no experiment, and a block with no closing marker.
func checkDoc(doc string, exps []Experiment) []error {
	var errs []error
	blocks := map[string][]string{}
	var order []string
	unclosed := map[string]bool{}
	name, body, open := "", "", false
	unterminated := func() {
		unclosed[name] = true
		errs = append(errs, fmt.Errorf("%s: block %s has no closing %s", docPath, name, closeMarker))
	}
	for _, line := range strings.SplitAfter(doc, "\n") {
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
			if blocks[name] == nil {
				order = append(order, name)
			}
			blocks[name] = append(blocks[name], body)
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
		if unclosed[e.Name] {
			continue
		}
		switch n := len(blocks[e.Name]); {
		case n == 0:
			errs = append(errs, fmt.Errorf("%s: no block for experiment %s: add %s%s --> … %s", docPath, e.Name, openMarker, e.Name, closeMarker))
			continue
		case n > 1:
			errs = append(errs, fmt.Errorf("%s: experiment %s has %d blocks, want one", docPath, e.Name, n))
			continue
		}
		fresh, err := stdout(e)
		if err != nil {
			errs = append(errs, fmt.Errorf("experiment %s: %v", e.Name, err))
			continue
		}
		if have := blocks[e.Name][0]; have != fresh {
			errs = append(errs, fmt.Errorf("%s: block %s differs from `go run ./cmd/mmt-bench -exp %s` at line %d; "+
				"if the change is meant, paste this block and say why in CHANGES.md:\n%s",
				docPath, e.Name, e.Name, firstDiffLine(have, fresh), fresh))
		}
	}
	for _, n := range order {
		if !known[n] {
			errs = append(errs, fmt.Errorf("%s: block %s names no experiment (see mmt-bench -list)", docPath, n))
		}
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

// TestExperimentsDoc: every paper table in EXPERIMENTS.md is byte for byte
// what mmt-bench prints today, and every experiment has exactly one block.
func TestExperimentsDoc(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (about 20 s) in -short mode")
	}
	if raceEnabled {
		t.Skip("the Intel half of Table IV moves 32-128MB; too slow under the race detector")
	}
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range checkDoc(string(doc), Experiments) {
		t.Error(err)
	}
}

// TestCheckDoc: the doc check refuses each way a block can go wrong, and
// says which experiment it concerns.
func TestCheckDoc(t *testing.T) {
	exps := []Experiment{
		{Name: "alpha", Run: func(int) (string, error) { return "## A\n\n| x |\n|---|\n| 1.25 |\n", nil }},
		{Name: "beta", Run: func(int) (string, error) { return "## B\n\n| y |\n|---|\n| 7 |\n", nil }},
	}
	block := func(name, body string) string {
		return openMarker + name + " -->\n" + body + closeMarker + "\n"
	}
	alpha := block("alpha", "## A\n\n| x |\n|---|\n| 1.25 |\n\n")
	beta := block("beta", "## B\n\n| y |\n|---|\n| 7 |\n\n")
	for _, tc := range []struct {
		name, doc string
		want      string // "" for a clean document, else in the one error
	}{
		{"clean", "# Doc\n\n" + alpha + "\nprose\n\n" + beta, ""},
		{"flipped digit", alpha + strings.Replace(beta, "| 7 |", "| 8 |", 1), "block beta differs from `go run ./cmd/mmt-bench -exp beta` at line 5"},
		{"missing block", alpha, "no block for experiment beta"},
		{"unknown name", alpha + beta + block("gamma", "## C\n"), "block gamma names no experiment"},
		{"unterminated", alpha + strings.TrimSuffix(beta, closeMarker+"\n"), "block beta has no closing"},
		{"open inside a block", strings.TrimSuffix(alpha, closeMarker+"\n") + beta, "block alpha has no closing"},
		{"duplicate block", alpha + beta + beta, "experiment beta has 2 blocks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := checkDoc(tc.doc, exps)
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
	errs := checkDoc(alpha+strings.Replace(beta, "| 7 |", "| 8 |", 1), exps)
	if len(errs) != 1 || !strings.HasSuffix(errs[0].Error(), "\n## B\n\n| y |\n|---|\n| 7 |\n\n") {
		t.Fatalf("mismatch does not end in the fresh block: %v", errs)
	}
}
