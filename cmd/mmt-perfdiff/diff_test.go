package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func fixture(name string) string { return filepath.Join("testdata", name) }

// Identical inputs must produce a clean report: zero regressions, every
// baseline metric compared.
func TestIdenticalInputsPass(t *testing.T) {
	rep, err := run(0.05, fixture("base_fig11.json"), []string{fixture("base_fig11.json")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("identical inputs reported %d regressions", rep.Regressions)
	}
	if len(rep.Comparisons) != 1 || len(rep.Comparisons[0].Metrics) == 0 {
		t.Fatalf("no metrics compared: %+v", rep)
	}
	for _, m := range rep.Comparisons[0].Metrics {
		if m.DeltaRel != 0 {
			t.Fatalf("identical inputs: metric %s has delta %v", m.Metric, m.DeltaRel)
		}
	}
}

// The synthetic regressed fixture (+20% p99, +7% protected-memory) must
// trip the 5% gate on exactly those metrics.
func TestRegressionDetected(t *testing.T) {
	rep, err := run(0.05, fixture("base_fig11.json"), []string{fixture("regressed_fig11.json")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions == 0 {
		t.Fatal("regressed fixture reported clean")
	}
	regressed := map[string]bool{}
	for _, m := range rep.Comparisons[0].Metrics {
		if m.Regressed {
			regressed[m.Metric] = true
		}
	}
	for _, want := range []string{"total/protected-memory", "hist/fig11-lat/busy/local-read/p99"} {
		if !regressed[want] {
			t.Errorf("expected %s to be flagged; flagged set: %v", want, regressed)
		}
	}
	if regressed["total/read-p99-migration-cycles"] {
		t.Error("unchanged metric flagged as regressed")
	}
	// A looser threshold must swallow the 7% total but not the 20% p99.
	rep, err = run(0.10, fixture("base_fig11.json"), []string{fixture("regressed_fig11.json")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 {
		t.Fatalf("10%% threshold: want exactly the p99 regression, got %d", rep.Regressions)
	}
}

// Non-comparable units (ratios, counts) must not gate.
func TestRatiosAndCountsExcluded(t *testing.T) {
	rep, err := run(0.05, fixture("base_fig11.json"), []string{fixture("base_fig11.json")})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Comparisons[0].Metrics {
		if m.Metric == "total/avg-overhead-2-level" || m.Metric == "total/migrations" {
			t.Fatalf("non-comparable metric %s reached the gate", m.Metric)
		}
	}
}

// A metric present in the baseline but missing from the candidate is a
// shape mismatch, not a regression.
func TestMissingMetricIsMismatch(t *testing.T) {
	_, err := run(0.05, fixture("base_fig11.json"), []string{fixture("missing_fig11.json")})
	var mm *errMismatch
	if !errors.As(err, &mm) {
		t.Fatalf("want shape mismatch, got %v", err)
	}
}

// A sidecar gaining (or losing) the windowed-series section relative to
// the baseline is a schema-generation change: fatal mismatch in both
// directions, never a silent pass.
func TestSeriesSectionGate(t *testing.T) {
	base, err := os.ReadFile(fixture("base_fig11.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(base, &doc); err != nil {
		t.Fatal(err)
	}
	doc["series"] = map[string]interface{}{
		"schema": "mmt-series/v1", "window_cycles": 16384, "max_samples": 64,
		"procs": []interface{}{},
	}
	withSeries, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "with_series_fig11.json")
	if err := os.WriteFile(p, withSeries, 0o644); err != nil {
		t.Fatal(err)
	}
	var mm *errMismatch
	if _, err := run(0.05, fixture("base_fig11.json"), []string{p}); !errors.As(err, &mm) {
		t.Fatalf("candidate gained series: want shape mismatch, got %v", err)
	}
	if _, err := run(0.05, p, []string{fixture("base_fig11.json")}); !errors.As(err, &mm) {
		t.Fatalf("candidate lost series: want shape mismatch, got %v", err)
	}
	// Both sides carrying the section compares normally.
	if _, err := run(0.05, p, []string{p}); err != nil {
		t.Fatalf("matched series sections must diff cleanly: %v", err)
	}
}

// Sidecars of different figures must not cross-compare.
func TestKindMismatch(t *testing.T) {
	fig10 := filepath.Join(t.TempDir(), "fig10.json")
	if err := os.WriteFile(fig10, []byte(`{"figure": "10", "profile": "gem5", "description": "d", "totals": [], "phase_sum_cycles": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := run(0.05, fixture("base_fig11.json"), []string{fig10})
	var mm *errMismatch
	if !errors.As(err, &mm) {
		t.Fatalf("want kind mismatch, got %v", err)
	}
}

// The report document carries its schema and threshold for downstream
// consumers.
func TestReportShape(t *testing.T) {
	rep, err := run(0.07, fixture("base_fig11.json"), []string{fixture("base_fig11.json")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema || rep.Threshold != 0.07 || rep.Kind != "fig11" {
		t.Fatalf("report header wrong: %+v", rep)
	}
}
