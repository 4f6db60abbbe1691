// Command benchmark is this repository's benchmark: it drives the public
// mmt API through five workloads and reports host-time, allocation and
// simulated-cycle metrics end to end, plus — in a separate traced run — a
// per-layer table timed from this package's own files. See README.md.
//
// The driver's form (one workload, one JSON result line):
//
//	bash benchmark/run.sh --workload migrate --seed 7 --seconds 8 --trace 0
//
// The developer's form (every workload, untraced then traced, count-bound
// so every counter repeats exactly):
//
//	bash benchmark/run.sh -seed 7 [-quick] [-repeat 2]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Uint64("seed", 1, "seed of the input generator")
	seconds := fs.Float64("seconds", 0, "measure for this long instead of the workload's fixed op count")
	trace := fs.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
	quick := fs.Bool("quick", false, "1/32 of the op counts (smoke test)")
	repeat := fs.Int("repeat", 0, "self-agreement: run each workload this many times and compare")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory (persist's store, span files)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	e := &env{seed: *seed, workdir: *workdir, quick: *quick}
	printEnvironment(stdout)

	if *repeat > 0 {
		ok, err := selfAgreement(stdout, selected, e, *repeat)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	// One report per (workload, mode); the last line printed is the JSON
	// result of the last report, which is the only one in the driver's form.
	var last *report
	var pr *probed
	allCorrect := true
	for _, w := range selected {
		lim := countLimit(w, e.quick)
		if *seconds > 0 {
			lim = limit{seconds: *seconds}
		}
		var untraced *result
		if *trace != 1 {
			res, err := runWorkload(w, e, lim, setupReps(e), nil)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			untraced = res
			last = endToEndReport(res)
			last.print(stdout)
			allCorrect = allCorrect && last.Correct
		}
		if *trace != 0 {
			if pr == nil { // the layers' rungs are timed once, whatever the workload
				var err error
				if pr, err = probeAll(e); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
			}
			rep, err := tracedRun(w, e, lim, pr, untraced)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			last = rep
			last.print(stdout)
			allCorrect = allCorrect && last.Correct
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !allCorrect {
		return 1
	}
	return 0
}
