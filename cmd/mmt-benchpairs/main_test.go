package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{[]float64{7}, 0.25, 7},
		{[]float64{7}, 0.75, 7},
		{[]float64{1, 3}, 0.5, 2},
		{[]float64{1, 3}, 0.25, 1.5},
		{[]float64{1, 3}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{10, 20, 30, 40}, 0.25, 17.5},
		{[]float64{10, 20, 30, 40}, 0.5, 25},
		{[]float64{10, 20, 30, 40}, 0.75, 32.5},
		{[]float64{10, 20, 30, 40}, 0, 10},
	} {
		if got := quantile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.sorted, tc.q, got, tc.want)
		}
	}
}

func TestLastLineStart(t *testing.T) {
	for _, tc := range []struct {
		out  string
		want int
	}{
		{"", 0},
		{"\n", 0},
		{"{}", 0},
		{"{}\n", 0},
		{"note\n{}\n", 5},
		{"note\n{}", 5},
		{"a\nb\n{\"correct\": true}\n", 4},
	} {
		if got := lastLineStart([]byte(tc.out)); got != tc.want {
			t.Errorf("lastLineStart(%q) = %d, want %d", tc.out, got, tc.want)
		}
	}
}

// runs builds one side's runs from per-run metric maps.
func runs(ms ...map[string]float64) []run {
	out := make([]run, len(ms))
	for i, m := range ms {
		out[i] = run{Seed: uint64(101 + i), Metrics: m}
	}
	return out
}

func TestSummarise(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs []run
		want map[string]quartiles
	}{
		{"no runs", nil, map[string]quartiles{}},
		{"one run", runs(map[string]float64{"op": 5}), map[string]quartiles{"op": {5, 5, 5}}},
		{"unsorted", runs(
			map[string]float64{"op": 40, "setup": 1},
			map[string]float64{"op": 10, "setup": 1},
			map[string]float64{"op": 30, "setup": 1},
			map[string]float64{"op": 20, "setup": 1},
		), map[string]quartiles{"op": {17.5, 25, 32.5}, "setup": {1, 1, 1}}},
		// Names come from run 0: a metric only a later run reports is
		// not summarised, and one a later run lacks reads as 0 there.
		{"names from run 0", runs(
			map[string]float64{"op": 4},
			map[string]float64{"extra": 9},
			map[string]float64{"op": 8},
		), map[string]quartiles{"op": {2, 4, 6}}},
	} {
		s := side{Runs: tc.runs}
		s.summarise()
		if !reflect.DeepEqual(s.Summary, tc.want) {
			t.Errorf("%s: summary %v, want %v", tc.name, s.Summary, tc.want)
		}
	}
}

func TestChangeWins(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change []run
		want           map[string]int
	}{
		{"no pairs", nil, nil, map[string]int{}},
		{"lower wins, ties count for neither",
			runs(map[string]float64{"op": 10}, map[string]float64{"op": 10}, map[string]float64{"op": 10}),
			runs(map[string]float64{"op": 9}, map[string]float64{"op": 10}, map[string]float64{"op": 11}),
			map[string]int{"op": 1}},
		{"all ties",
			runs(map[string]float64{"op": 3, "cycles": 7}, map[string]float64{"op": 3, "cycles": 7}),
			runs(map[string]float64{"op": 3, "cycles": 7}, map[string]float64{"op": 3, "cycles": 7}),
			map[string]int{}},
		{"per metric",
			runs(map[string]float64{"op": 10, "setup": 1}, map[string]float64{"op": 10, "setup": 1}),
			runs(map[string]float64{"op": 9, "setup": 2}, map[string]float64{"op": 8, "setup": 0.5}),
			map[string]int{"op": 2, "setup": 1}},
		// Names come from the change's run 0; a metric a parent run
		// lacks reads as 0 there, so a positive change value loses.
		{"names from run 0, missing reads as 0",
			runs(map[string]float64{"op": 10, "gone": 5}, map[string]float64{"op": 10}),
			runs(map[string]float64{"op": 9, "new": 1}, map[string]float64{"op": 9, "new": 1}),
			map[string]int{"op": 2}},
	} {
		if got := changeWins(tc.parent, tc.change); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: wins %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCheckRefusesAChangedMetricSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs []run
		bad  string // "" when the side is accepted
	}{
		{"no runs", nil, ""},
		{"same sets", runs(map[string]float64{"op": 1, "setup": 2}, map[string]float64{"setup": 3, "op": 0}), ""},
		{"extra metric", runs(map[string]float64{"op": 1}, map[string]float64{"op": 1, "setup": 2}), "run 1"},
		{"missing metric", runs(map[string]float64{"op": 1, "setup": 2}, map[string]float64{"op": 1}), "run 1"},
		{"renamed metric", runs(map[string]float64{"op": 1}, map[string]float64{"op": 1}, map[string]float64{"op_ns": 1}), "run 2"},
	} {
		s := side{Commit: "c0ffee", Runs: tc.runs}
		err := s.check()
		if tc.bad == "" && err != nil {
			t.Errorf("%s: refused: %v", tc.name, err)
		}
		if tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad)) {
			t.Errorf("%s: got %v, want %s refused", tc.name, err, tc.bad)
		}
	}
}

// TestCheckoutRoot: a -parent must be the top level of its own git work
// tree; a plain copy and a copy inside another checkout are refused.
func TestCheckoutRoot(t *testing.T) {
	repo := t.TempDir()
	if out, err := exec.Command("git", "init", "-q", repo).CombinedOutput(); err != nil {
		t.Skipf("git init: %v: %s", err, out)
	}
	nested := filepath.Join(repo, "parent")
	plain := t.TempDir()
	if err := os.Mkdir(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, dir, bad string }{
		{"top level", repo, ""},
		{"not a git checkout", plain, "is not a git checkout"},
		{"inside another checkout", nested, "not the top level"},
	} {
		err := checkoutRoot(tc.dir)
		if tc.bad == "" && err != nil {
			t.Errorf("%s: refused: %v", tc.name, err)
		}
		if tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad)) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.bad)
		}
	}
}
