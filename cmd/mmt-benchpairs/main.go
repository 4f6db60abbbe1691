// Command mmt-benchpairs records one workload of the repository benchmark
// as alternating parent/change pairs, the form a performance claim is
// judged in (EXPERIMENTS.md, "Host-time claims"): the same command on both
// checkouts, the side that runs first alternating pair by pair, a fresh
// seed per pair, and each side summarised by its median and quartiles.
// The result is the root-level BENCH_<workload>.json a PR commits.
//
// Usage, from the root of the change's checkout:
//
//	mmt-benchpairs -workload migrate -parent ../parent-checkout   # both sides
//	mmt-benchpairs -workload migrate                              # change side only
//
// Without -parent only the change side is run again; the parent side
// already in the output file is kept, and the pairing is by index. A
// -parent directory must be the top level of a git work tree: a copy made
// with git archive would record its commit as "unknown", and a copy inside
// another checkout would record that checkout's commit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
)

// run is one result line of benchmark/run.sh plus the two allocation
// figures it prints as a note.
type run struct {
	Seed    uint64             `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

type side struct {
	Commit  string               `json:"commit"`
	Runs    []run                `json:"runs"`
	Summary map[string]quartiles `json:"summary"`
}

type report struct {
	Workload string   `json:"workload"`
	Command  []string `json:"command"`
	// FirstSide[i] is the side that ran first in pair i.
	FirstSide []string `json:"first_side"`
	Parent    side     `json:"parent"`
	Change    side     `json:"change"`
	// ChangeWins counts, per metric, the pairs in which the change read
	// lower than the parent (every metric here is lower-is-better).
	ChangeWins map[string]int `json:"change_wins"`
}

var noteRE = regexp.MustCompile(`allocs_per_op (\S+)\s+bytes_per_op (\S+)`)

// measure runs the benchmark once in dir and parses its output.
func measure(dir string, args []string, seed uint64) (run, error) {
	cmd := exec.Command("bash", append(args, "--seed", strconv.FormatUint(seed, 10))...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%s in %s: %w", args[0], dir, err)
	}
	var line struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	last := out[lastLineStart(out):]
	if err := json.Unmarshal(last, &line); err != nil || !line.Correct {
		return run{}, fmt.Errorf("%s in %s: result line %q (correct=%v): %v", args[0], dir, last, line.Correct, err)
	}
	r := run{Seed: seed, Metrics: map[string]float64{}}
	for name, m := range line.Metrics {
		r.Metrics[name] = m.Value
	}
	if m := noteRE.FindSubmatch(out); m != nil {
		r.Metrics["allocs_per_op"], _ = strconv.ParseFloat(string(m[1]), 64)
		r.Metrics["bytes_per_op"], _ = strconv.ParseFloat(string(m[2]), 64)
	}
	return r, nil
}

// lastLineStart is the offset of out's last line, a final newline not
// counting as the start of an empty one.
func lastLineStart(out []byte) int {
	for i := len(out) - 2; i >= 0; i-- {
		if out[i] == '\n' {
			return i + 1
		}
	}
	return 0
}

// quantile interpolates linearly between order statistics.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summarise sets each metric's quartiles over the side's runs. The metric
// names are run 0's; a run missing one reads as 0 there (check refuses
// such a run before it gets here).
func (s *side) summarise() {
	s.Summary = map[string]quartiles{}
	if len(s.Runs) == 0 {
		return
	}
	for name := range s.Runs[0].Metrics {
		vals := make([]float64, len(s.Runs))
		for i, r := range s.Runs {
			vals[i] = r.Metrics[name]
		}
		sort.Float64s(vals)
		s.Summary[name] = quartiles{quantile(vals, 0.25), quantile(vals, 0.5), quantile(vals, 0.75)}
	}
}

// check refuses a side with a run whose metric set differs from run 0's,
// the set summarise and changeWins take their names from.
func (s *side) check() error {
	for i, r := range s.Runs {
		got, want := slices.Sorted(maps.Keys(r.Metrics)), slices.Sorted(maps.Keys(s.Runs[0].Metrics))
		if !slices.Equal(got, want) {
			return fmt.Errorf("%s run %d (seed %d) reports metrics %v, run 0 reports %v", s.Commit, i, r.Seed, got, want)
		}
	}
	return nil
}

// changeWins counts, per metric of the change's run 0, the pairs in which
// the change read strictly lower than the parent; a tie counts for
// neither side, and a metric a parent run lacks reads as 0 there.
func changeWins(parent, change []run) map[string]int {
	wins := map[string]int{}
	if len(change) == 0 {
		return wins
	}
	for name := range change[0].Metrics {
		for i := range change {
			if change[i].Metrics[name] < parent[i].Metrics[name] {
				wins[name]++
			}
		}
	}
	return wins
}

// commitOf names dir's checkout: its commit, "-dirty" when the work tree
// differs from it.
func commitOf(dir string) string {
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil || len(out) == 0 {
		return "unknown"
	}
	return string(out[:len(out)-1])
}

// checkoutRoot refuses a directory that is not the top level of a git work
// tree, the only place where commitOf names the commit that is measured.
func checkoutRoot(dir string) error {
	cmd := exec.Command("git", "rev-parse", "--show-toplevel")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s is not a git checkout: %v", dir, err)
	}
	top, err := filepath.EvalSymlinks(string(bytes.TrimSpace(out)))
	if err == nil {
		dir, err = filepath.Abs(dir)
	}
	if err == nil {
		dir, err = filepath.EvalSymlinks(dir)
	}
	if err == nil && top != dir {
		err = fmt.Errorf("%s is inside the checkout at %s, not the top level of its own", dir, top)
	}
	return err
}

// The pairing is fixed, not configurable: a recorded run must be the run
// the driver judges (BENCHMARK.json's run length, ten pairs), and pair i
// uses seed firstSeed+i on both sides.
const (
	pairs     = 10
	seconds   = 16
	firstSeed = 101
)

func main() {
	workload := flag.String("workload", "migrate", "benchmark workload to record")
	parent := flag.String("parent", "", "checkout of the parent commit; empty re-runs the change side only")
	flag.Parse()
	outPath := "BENCH_" + *workload + ".json"
	args := []string{"benchmark/run.sh", "--workload", *workload, "--seconds", strconv.Itoa(seconds), "--trace", "0"}
	rep := report{Workload: *workload, Command: append([]string{"bash"}, args...)}
	if *parent == "" {
		old, err := os.ReadFile(outPath)
		if err == nil {
			err = json.Unmarshal(old, &rep)
		}
		if err != nil || len(rep.Parent.Runs) != pairs {
			fmt.Fprintf(os.Stderr, "mmt-benchpairs: no parent side with %d runs in %s (%v); pass -parent\n", pairs, outPath, err)
			os.Exit(2)
		}
		if err := rep.Parent.check(); err != nil {
			fmt.Fprintf(os.Stderr, "mmt-benchpairs: %s: %v\n", outPath, err)
			os.Exit(2)
		}
	} else if err := checkoutRoot(*parent); err != nil {
		fmt.Fprintln(os.Stderr, "mmt-benchpairs: -parent:", err)
		os.Exit(2)
	} else {
		rep.Parent = side{Commit: commitOf(*parent)}
	}
	rep.Change = side{Commit: commitOf(".")}

	for i := 0; i < pairs; i++ {
		order := []string{"parent", "change"}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		if *parent != "" {
			rep.FirstSide = append(rep.FirstSide, order[0])
		}
		for _, which := range order {
			s, dir := &rep.Change, "."
			if which == "parent" {
				if *parent == "" {
					continue
				}
				s, dir = &rep.Parent, *parent
			}
			r, err := measure(dir, args, firstSeed+uint64(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "mmt-benchpairs:", err)
				os.Exit(1)
			}
			s.Runs = append(s.Runs, r)
			if err := s.check(); err != nil {
				fmt.Fprintln(os.Stderr, "mmt-benchpairs:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "pair %d %-6s op_p10_ns %.4g\n", i, which, r.Metrics["op_p10_ns"])
		}
	}
	rep.Parent.summarise()
	rep.Change.summarise()
	rep.ChangeWins = changeWins(rep.Parent.Runs, rep.Change.Runs)
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(outPath, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmt-benchpairs:", err)
		os.Exit(1)
	}
	for _, name := range []string{"op_p10_ns", "sim_cycles_per_op", "setup_s", "allocs_per_op", "bytes_per_op"} {
		p, c := rep.Parent.Summary[name], rep.Change.Summary[name]
		fmt.Printf("%-18s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  change lower in %d/%d pairs\n",
			name, p.Median, p.Q1, p.Q3, c.Median, c.Q1, c.Q3, rep.ChangeWins[name], pairs)
	}
}
