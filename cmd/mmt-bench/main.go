// Command mmt-bench regenerates the paper's evaluation: every table and
// figure of "Efficient Distributed Secure Memory with Migratable Merkle
// Tree" (HPCA 2023), printed as Markdown tables with the paper's published
// numbers alongside for comparison, each experiment ending in a table of the
// paper's claims checked against its rows. EXPERIMENTS.md holds this output
// verbatim, one block per experiment, and a test in internal/bench keeps it
// equal and fails on a claim that does not hold without a stated reason.
//
// Usage:
//
//	mmt-bench -exp all          # every experiment (about 18 s on 2 vCPUs)
//	mmt-bench -exp table4       # Gem5 half of Table IV
//	mmt-bench -exp table4-intel # Intel/AES-NI half (32-128MB functional transfers)
//	mmt-bench -exp fig10a,fig11 # comma-separated selection
//	mmt-bench -list             # list experiments
//	mmt-bench -fig 10           # write the BENCH_fig10.json metrics sidecar
//	mmt-bench -fig 10,11 -out . # several sidecars into a directory
//	mmt-bench -fig 11 -parallel 8   # same bytes, less wall-clock
//
// Sidecars are machine-readable companions to the rendered figures: the
// headline numbers plus the trace-layer breakdown (per-phase simulated
// cycles and counters) of the run that produced them. For figures that
// report cycle totals the per-phase cycles sum to the reported total
// exactly (check_total_cycles == phase_sum_cycles).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"mmt/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment(s) to run, comma separated, or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	accesses := flag.Int("accesses", 0, "trace length for fig11/ablation (default 200000)")
	fig := flag.String("fig", "", "figure number(s): write BENCH_fig<N>.json metrics sidecar(s) and exit")
	series := flag.Bool("series", false, "with -fig: also write BENCH_fig<N>.series.json (mmt-series/v1) for figures that sample (fig 11)")
	out := flag.String("out", ".", "output directory for -fig sidecars")
	parallel := flag.Int("parallel", 1, "worker goroutines for figure sweeps (results are byte-identical at any setting)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to FILE (relative paths land next to the sidecars in -out)")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to FILE at exit (relative paths land next to the sidecars in -out)")
	flag.Parse()

	bench.SetWorkers(*parallel)

	// Host-speed profiling (the ROADMAP's profile-driven item): the pprof
	// files describe the simulator itself, not the simulated machines, so
	// they sit beside the sidecars they explain.
	if *cpuprofile != "" {
		f, err := os.Create(profilePath(*out, *cpuprofile))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(profilePath(*out, *memprofile))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-13s %s\n", e.Name, e.Desc)
		}
		return
	}

	if *fig != "" {
		if err := writeSidecars(*fig, *out, *accesses, *series); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	runExperiments(*accesses, *exp)
}

// profilePath resolves a -cpuprofile/-memprofile argument: relative
// names land in the -out directory, next to the sidecars they explain.
func profilePath(dir, name string) string {
	if filepath.IsAbs(name) {
		return name
	}
	return filepath.Join(dir, name)
}

// writeSidecars emits BENCH_fig<N>.json for each requested figure and,
// with -series, the BENCH_fig<N>.series.json mmt-series/v1 companion
// for figures that sample (both from the same run).
func writeSidecars(figs, dir string, accesses int, series bool) error {
	for _, f := range strings.Split(figs, ",") {
		f = strings.TrimSpace(f)
		var (
			sc         *bench.Sidecar
			seriesData []byte
			err        error
		)
		if series {
			sc, seriesData, err = bench.SeriesForFigure(f, accesses)
		} else {
			sc, err = bench.SidecarForFigure(f, accesses)
		}
		if err != nil {
			return err
		}
		data, err := sc.JSON()
		if err != nil {
			return fmt.Errorf("fig %s: %w", f, err)
		}
		path := filepath.Join(dir, "BENCH_fig"+f+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d totals, %d traced procs, phase sum %.1f cycles)\n",
			path, len(sc.Totals), len(sc.Procs), float64(sc.PhaseSumCycles))
		if series {
			if seriesData == nil {
				fmt.Printf("fig %s does not sample; no series sidecar\n", f)
				continue
			}
			spath := filepath.Join(dir, "BENCH_fig"+f+".series.json")
			if err := os.WriteFile(spath, seriesData, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d procs)\n", spath, len(sc.Series.Procs))
		}
	}
	return nil
}

// runExperiments runs the selected rendered tables/figures.
func runExperiments(accesses int, exp string) {
	selected := map[string]bool{}
	runAll := exp == "all"
	for _, name := range strings.Split(exp, ",") {
		selected[strings.TrimSpace(name)] = true
	}
	known := map[string]bool{}
	for _, e := range bench.Experiments {
		known[e.Name] = true
	}
	var unknown []string
	for name := range selected {
		if !runAll && !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiment(s): %s (use -list)\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}

	failed := false
	for _, e := range bench.Experiments {
		if !runAll && !selected[e.Name] {
			continue
		}
		out, _, err := e.Output(accesses)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			failed = true
			continue
		}
		fmt.Println(out)
	}
	if failed {
		os.Exit(1)
	}
}
