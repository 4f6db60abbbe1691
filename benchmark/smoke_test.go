package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// declaration mirrors ../BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              *float64
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameMetrics checks that a report emits exactly the declared metrics,
// each with its declared unit.
func sameMetrics(t *testing.T, where string, rep *report, want []declared) {
	t.Helper()
	seen := map[string]bool{}
	for _, d := range want {
		if seen[d.Name] {
			t.Errorf("%s: %s is declared twice", where, d.Name)
		}
		seen[d.Name] = true
		if !nameRE.MatchString(d.Name) {
			t.Errorf("%s: bad metric name %q", where, d.Name)
		}
		m, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s was not emitted", where, d.Name)
		case m.Unit == "" || m.Unit != d.Unit:
			t.Errorf("%s: %s emitted in %q, declared in %q", where, d.Name, m.Unit, d.Unit)
		}
	}
	for name := range rep.Metrics {
		if !seen[name] {
			t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", where, name)
		}
	}
}

// TestSmoke runs every workload in -quick mode, untraced and traced, and
// holds the output against BENCHMARK.json. No timing is asserted, so the
// test is safe under -race and on a loaded machine.
func TestSmoke(t *testing.T) {
	d := readDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, dw := range d.Workloads {
		if _, ok := findWorkload(dw.Name); !ok {
			t.Errorf("declared workload %s does not exist", dw.Name)
		}
		if !nameRE.MatchString(dw.Name) || dw.Why == "" || strings.Contains(dw.Why, "\n") {
			t.Errorf("workload %q needs a valid name and a one-line why", dw.Name)
		}
	}
	for _, m := range d.EndToEnd {
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in [0, 0.25]", m.Name)
		}
		if m.Name == "op_p10_ns" && m.Bound != nil && *m.Bound != opBound {
			t.Errorf("op_p10_ns is declared with bound %v, -repeat compares with %v", *m.Bound, opBound)
		}
	}

	e := &env{seed: 11, workdir: t.TempDir(), quick: true}
	pr, err := probeAll(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		lim := countLimit(w, true)
		res, err := runWorkload(w, e, lim, setupReps(e), nil)
		if err != nil {
			t.Fatal(err)
		}
		rep := endToEndReport(res)
		sameMetrics(t, w.name+" untraced", rep, d.EndToEnd)
		if !rep.Correct || rep.Attempted < 1 {
			t.Errorf("%s untraced: correct=%v attempted=%d failed=%d", w.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		for _, m := range d.EndToEnd {
			if rep.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, m.Name, rep.Metrics[m.Name].Value)
			}
		}
		traced, err := tracedRun(w, e, lim, pr, res)
		if err != nil {
			t.Fatal(err)
		}
		sameMetrics(t, w.name+" traced", traced, d.PerLayer)
		if !traced.Correct {
			t.Errorf("%s traced: %d of %d checks failed: %v", w.name, traced.Failed, traced.Attempted, traced.notes)
		}
		// Every migration costs the same simulated cycles, so the shorter
		// traced slice must agree with the untraced run (to rounding: the
		// two divide different clock totals).
		if got := traced.Metrics["api.sim_cycles_per_op"].Value; w.name == "migrate" && math.Abs(got-res.cyclesPerOp) > 1e-9*got {
			t.Errorf("migrate: sim_cycles_per_op is %v traced, %v untraced", got, res.cyclesPerOp)
		}
	}
	// -workdir holds only span files now: every store directory is gone.
	left, err := os.ReadDir(e.workdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if f.IsDir() || !strings.HasPrefix(f.Name(), "spans-") {
			t.Errorf("left behind in the scratch directory: %s", f.Name())
		}
	}
}

// TestDriverForm checks the contract's command line and result line.
func TestDriverForm(t *testing.T) {
	for _, mode := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "line-write", "--seed", "3", "--seconds", "0.2", "--trace", mode, "-quick", "-workdir", t.TempDir()}
		if code := realMain(args, &out, &errOut); code != 0 {
			t.Fatalf("exit code %d: %s", code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(got) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", got)
		}
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if mode == "1" {
			want = len(perLayer())
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 || len(rep.Metrics) != want {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d metrics=%d (want %d)", mode, rep.Correct, rep.Attempted, rep.Failed, len(rep.Metrics), want)
		}
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "no-such"}, &out, &errOut); code == 0 {
		t.Error("an unknown workload must exit non-zero")
	}
}
