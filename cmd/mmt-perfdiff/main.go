// Command mmt-perfdiff diffs two or more mmt-bench BENCH_fig*.json
// figure sidecars against configurable regression thresholds, producing a
// machine-readable mmt-perfdiff/v1 report. It is the perf-regression
// gate: CI regenerates the sidecars and diffs them against the committed
// baselines under testdata/baselines/, so the bench trajectory is
// recorded and a perf-affecting change announces itself.
//
// Usage:
//
//	mmt-perfdiff baseline.json candidate.json [candidate2.json ...]
//	mmt-perfdiff -threshold 0.10 base.json cand.json   # 10% gate
//	mmt-perfdiff -warn -out report.json base.json cand.json
//	mmt-perfdiff -update testdata/baselines new1.json new2.json ...
//
// -update is the baseline-refresh mode (`make baselines` drives it): each
// named sidecar is parsed and validated exactly like a diff input, then
// copied verbatim into the given directory under its base name. Promoting
// a sidecar to baseline goes through the same extractor that will later
// diff it, so a malformed file can never become the committed baseline.
//
// The first file is the baseline and defines the metric set: every
// lower-is-better number it carries (per-phase cycles,
// per-histogram p50/p99/mean quantiles, cycle/second totals) must be
// present in each candidate and must not exceed the baseline by more
// than the relative threshold.
//
// Exit status: 0 = no regressions (or -warn), 1 = at least one metric
// regressed beyond the threshold, 2 = schema or shape mismatch (always
// fatal, even under -warn: a mismatch means the baseline is stale, not
// that the code is slow).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	threshold := flag.Float64("threshold", 0.05, "relative regression threshold (0.05 = 5%)")
	warn := flag.Bool("warn", false, "report regressions but exit 0 (CI soft gate); schema mismatches stay fatal")
	out := flag.String("out", "", "write the mmt-perfdiff/v1 JSON report to this file")
	update := flag.String("update", "", "validate the named sidecars and install them as baselines in this directory")
	flag.Parse()

	if *update != "" {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: mmt-perfdiff -update <dir> sidecar.json ...")
			os.Exit(2)
		}
		if err := updateBaselines(*update, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "mmt-perfdiff:", err)
			os.Exit(2)
		}
		return
	}

	if flag.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: mmt-perfdiff [-threshold 0.05] [-warn] [-out report.json] baseline.json candidate.json ...")
		os.Exit(2)
	}

	rep, err := run(*threshold, flag.Arg(0), flag.Args()[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmt-perfdiff:", err)
		os.Exit(2)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmt-perfdiff:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mmt-perfdiff:", err)
			os.Exit(2)
		}
	}
	printSummary(rep)
	if rep.Regressions > 0 && !*warn {
		os.Exit(1)
	}
}

// updateBaselines validates each sidecar through the diff extractor and
// copies it into dir under its base name.
func updateBaselines(dir string, paths []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		doc, err := extract(data)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		dst := filepath.Join(dir, filepath.Base(p))
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("baseline %s <- %s (%s, %d metrics)\n", dst, p, doc.Kind, len(doc.Metrics))
	}
	return nil
}

// run loads the baseline and candidates and produces the report.
func run(threshold float64, basePath string, candPaths []string) (*Report, error) {
	base, err := load(basePath)
	if err != nil {
		return nil, err
	}
	cands := make([]*perfDoc, 0, len(candPaths))
	for _, p := range candPaths {
		c, err := load(p)
		if err != nil {
			return nil, err
		}
		cands = append(cands, c)
	}
	return diffDocs(threshold, basePath, base, candPaths, cands)
}

func load(path string) (*perfDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := extract(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// printSummary renders the regressions (and improvements) as text; clean
// comparisons print one line each.
func printSummary(rep *Report) {
	for _, c := range rep.Comparisons {
		if c.Regressions == 0 && c.Improved == 0 {
			fmt.Printf("%s vs %s: %d metrics within %.1f%%\n",
				c.Candidate, rep.Baseline, len(c.Metrics), rep.Threshold*100)
			continue
		}
		fmt.Printf("%s vs %s: %d regressed, %d improved (threshold %.1f%%)\n",
			c.Candidate, rep.Baseline, c.Regressions, c.Improved, rep.Threshold*100)
		for _, m := range c.Metrics {
			if !m.Regressed && !m.Improved {
				continue
			}
			tag := "IMPROVED"
			if m.Regressed {
				tag = "REGRESSED"
			}
			fmt.Printf("  %-9s %-40s %14.3f -> %14.3f %s (%+.2f%%)\n",
				tag, m.Metric, m.Baseline, m.Candidate, m.Unit, m.DeltaRel*100)
		}
	}
}
