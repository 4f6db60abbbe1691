package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mmt"
	"mmt/internal/bench"
	"mmt/internal/trace"
)

// artefacts generates one document of every kind the command reads,
// in-process and once per test binary: the five exports of a
// quickstart-shaped run (2×DefaultSeriesCap line writes, so the sampler
// ring evicts; delegations until a sender-side stale-counter rejection,
// so the ledger carries a warn entry with a causally linked flight
// recorder), the fig10 sidecar, the fig11 sidecar with and without its
// series companion, and the manifest of a Save.
var artefacts = sync.OnceValues(func() (map[string][]byte, error) {
	out := map[string][]byte{}
	sink := mmt.NewTraceSink()
	c, err := mmt.New(mmt.WithTreeLevels(2), mmt.WithRegions(8), mmt.WithTracing(sink),
		mmt.WithSampling(mmt.SamplingConfig{WindowCycles: 1 << 8}))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	alice, err := c.AddMachine("alice")
	if err != nil {
		return nil, err
	}
	bob, err := c.AddMachine("bob")
	if err != nil {
		return nil, err
	}
	link, err := c.Connect(alice.Spawn("producer", []byte("app")), bob.Spawn("consumer", []byte("app")))
	if err != nil {
		return nil, err
	}
	stale, err := link.NewBuffer(link.Sender())
	if err != nil {
		return nil, err
	}
	line := make([]byte, 64)
	for i := 0; i < 2*trace.DefaultSeriesCap; i++ {
		if err := stale.Write(i*len(line), line); err != nil {
			return nil, err
		}
	}
	for rejected := false; !rejected; {
		fresh, err := link.NewBuffer(link.Sender())
		if err != nil {
			return nil, err
		}
		if err := fresh.Write(0, []byte("secret bytes")); err != nil {
			return nil, err
		}
		if err := link.Delegate(fresh, mmt.OwnershipTransfer); err != nil {
			return nil, err
		}
		got, err := link.Receive(link.Receiver())
		if err != nil {
			return nil, err
		}
		if _, err := got.Read(0, 12); err != nil {
			return nil, err
		}
		rejected = errors.Is(link.Delegate(stale, mmt.OwnershipTransfer), mmt.ErrStaleCounter)
	}
	for kind, write := range map[string]func(*bytes.Buffer) error{
		"chrome": func(b *bytes.Buffer) error { return sink.WriteChromeTrace(b) },
		"hist":   func(b *bytes.Buffer) error { return sink.WriteHistJSON(b) },
		"events": func(b *bytes.Buffer) error { return sink.WriteEventsJSONL(b) },
		"causal": func(b *bytes.Buffer) error { return sink.WriteCausalJSON(b) },
		"series": func(b *bytes.Buffer) error { return sink.WriteSeriesJSON(b) },
		"manifest": func(b *bytes.Buffer) error {
			man, err := c.Save(&bytes.Buffer{})
			if err != nil {
				return err
			}
			return man.WriteJSON(b)
		},
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			return nil, err
		}
		out[kind] = b.Bytes()
	}
	fig10, err := bench.SidecarForFigure("10", 0)
	if err != nil {
		return nil, err
	}
	fig11, err := bench.SidecarForFigure("11", 400)
	if err != nil {
		return nil, err
	}
	fig11s, series11, err := bench.SeriesForFigure("11", 400)
	if err != nil {
		return nil, err
	}
	for kind, sc := range map[string]*bench.Sidecar{"fig10": fig10, "fig11": fig11, "fig11-with-series": fig11s} {
		if out[kind], err = sc.JSON(); err != nil {
			return nil, err
		}
	}
	out["fig11-series"] = series11
	return out, nil
})

func artefact(t *testing.T, kind string) []byte {
	t.Helper()
	all, err := artefacts()
	if err != nil {
		t.Fatal(err)
	}
	if all[kind] == nil {
		t.Fatalf("no generated artefact %q", kind)
	}
	return all[kind]
}

// TestGeneratedArtefactsValidate: nothing a generator writes is rejected,
// and the quickstart-shaped run reaches the corners the mutations below
// need (an evicted aggregate, a flight recorder with a causal link).
func TestGeneratedArtefactsValidate(t *testing.T) {
	all, err := artefacts()
	if err != nil {
		t.Fatal(err)
	}
	for kind, data := range all {
		if err := render(io.Discard, data, 0); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	for kind, want := range map[string]string{"series": `"evicted":{`, "events": `"flight":[`, "fig11": `"series": {`} {
		if !bytes.Contains(all[kind], []byte(want)) {
			t.Errorf("%s artefact has no %s; the mutation table depends on it", kind, want)
		}
	}
	if !bytes.Contains(all["events"], []byte(`,"trace":"alice#`)) {
		t.Error("events artefact has no causally linked flight span")
	}
}

// node walks a decoded JSON tree: a string steps into an object, an int
// into an array (negative counts from the end).
func node(t *testing.T, v interface{}, path ...interface{}) interface{} {
	t.Helper()
	for _, step := range path {
		switch step := step.(type) {
		case string:
			m, ok := v.(map[string]interface{})
			if !ok || m[step] == nil {
				t.Fatalf("path %v: no key %q", path, step)
			}
			v = m[step]
		case int:
			a, ok := v.([]interface{})
			if step < 0 {
				step += len(a)
			}
			if !ok || step < 0 || step >= len(a) {
				t.Fatalf("path %v: no index %d", path, step)
			}
			v = a[step]
		}
	}
	return v
}

func object(t *testing.T, v interface{}, path ...interface{}) map[string]interface{} {
	t.Helper()
	m, ok := node(t, v, path...).(map[string]interface{})
	if !ok {
		t.Fatalf("path %v is not an object", path)
	}
	return m
}

// mutate decodes line n of data (0 for a single-document artefact)
// keeping every number verbatim, applies edit to the tree and re-encodes.
func mutate(t *testing.T, data []byte, n int, edit func(root interface{})) []byte {
	t.Helper()
	lines := [][]byte{data}
	if n > 0 || bytes.HasPrefix(data, []byte(`{"schema":"mmt-events/v1"`)) {
		lines = bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	}
	dec := json.NewDecoder(bytes.NewReader(lines[n]))
	dec.UseNumber()
	var root interface{}
	if err := dec.Decode(&root); err != nil {
		t.Fatal(err)
	}
	edit(root)
	var err error
	if lines[n], err = json.Marshal(root); err != nil {
		t.Fatal(err)
	}
	return append(bytes.Join(lines, []byte("\n")), '\n')
}

// TestMutationsRejected is the proof that the strict parsers reject what
// the hand-mirrored checker rejected, plus the sections it never looked
// at: one mutation per invariant, each applied to a generated artefact
// that validates, each required to fail with a message naming the field
// and to render nothing.
func TestMutationsRejected(t *testing.T) {
	num := func(s string) json.Number { return json.Number(s) }
	rename := func(m map[string]interface{}, from, to string) { m[to] = m[from]; delete(m, from) }
	// flightLine finds the ledger line that carries a flight recorder.
	flightLine := func(t *testing.T) int {
		for i, line := range bytes.Split(artefact(t, "events"), []byte("\n")) {
			if bytes.Contains(line, []byte(`"flight":[`)) {
				return i
			}
		}
		t.Fatal("no flight recorder")
		return 0
	}
	type tree = interface{}
	cases := []struct {
		name, kind string
		line       int // events only; -1 = the line with a flight recorder
		edit       func(t *testing.T, r tree)
		want       string // must appear in the error
	}{
		// Chrome trace.
		{"chrome: renamed key", "chrome", 0, func(t *testing.T, r tree) { rename(object(t, r, 0), "pid", "process") }, `unknown field "process"`},
		{"chrome: unknown key", "chrome", 0, func(t *testing.T, r tree) { object(t, r, -1)["extra"] = 1 }, `unknown field "extra"`},
		{"chrome: unknown ph", "chrome", 0, func(t *testing.T, r tree) { object(t, r, 2)["ph"] = "B" }, `unknown ph "B"`},
		{"chrome: span name is no phase", "chrome", 0, func(t *testing.T, r tree) { object(t, r, 2)["name"] = "bogus" }, `unknown name "bogus"`},
		{"chrome: unknown counter", "chrome", 0, func(t *testing.T, r tree) { object(t, r, -1, "args")["bogus"] = 1 }, `unknown counter "bogus"`},
		{"chrome: fractional counter", "chrome", 0, func(t *testing.T, r tree) { object(t, r, -1, "args")["mac-verifies"] = num("1.5") }, `args.mac-verifies`},
		{"chrome: pid without metadata", "chrome", 0, func(t *testing.T, r tree) { object(t, r, 2)["pid"] = 9 }, `pid 9 has no process_name`},
		{"chrome: negative dur", "chrome", 0, func(t *testing.T, r tree) { object(t, r, 2)["dur"] = num("-1.000") }, `negative ts or dur`},
		{"chrome: half a causal link", "chrome", 0, func(t *testing.T, r tree) {
			for _, ev := range r.([]interface{}) {
				if args, ok := ev.(map[string]interface{})["args"].(map[string]interface{}); ok && args["trace"] != nil {
					delete(args, "parent")
					return
				}
			}
			t.Fatal("no causally linked span")
		}, `missing key "parent"`},

		// Histograms.
		{"hist: renamed key", "hist", 0, func(t *testing.T, r tree) { rename(object(t, r, "procs", 0, "ops", 0), "count", "n") }, `unknown field "n"`},
		{"hist: unknown key", "hist", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0)["extra"] = 1 }, `unknown field "extra"`},
		{"hist: wrong schema", "hist", 0, func(t *testing.T, r tree) { object(t, r)["schema"] = "mmt-hist/v2" }, `unknown schema "mmt-hist/v2"`},
		{"hist: unknown op", "hist", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "ops", 0)["op"] = "bogus" }, `unknown op "bogus"`},
		{"hist: procs out of order", "hist", 0, func(t *testing.T, r tree) { object(t, r, "procs", 1)["proc"] = "aaa" }, `out of name order`},
		{"hist: bucket sum != count", "hist", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "ops", 0)["count"] = 99 }, `want count 99`},
		{"hist: bound not a power of two", "hist", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "ops", 0, "buckets", 0)["le_cycles"] = 3 }, `le_cycles 3 is not the next bucket bound`},
		{"hist: quantile the buckets do not give", "hist", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "ops", 0)["p50_cycles"] = num("1000000000") }, `p50_cycles`},
		{"hist: min above max", "hist", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "ops", 0)["min_cycles"] = num("1000000000000") }, `min_cycles`},

		// Ledger (JSON Lines).
		{"events: dropped zero-valued header key", "events", 0, func(t *testing.T, r tree) { delete(object(t, r), "dropped") }, `missing key "dropped"`},
		{"events: header count", "events", 0, func(t *testing.T, r tree) { object(t, r)["events"] = 1 }, `header says 1 events`},
		{"events: renamed key", "events", 1, func(t *testing.T, r tree) { rename(object(t, r), "detail", "details") }, `unknown field "details"`},
		{"events: dropped zero-valued key", "events", 1, func(t *testing.T, r tree) { delete(object(t, r), "window") }, `missing key "window"`},
		{"events: unknown kind", "events", 1, func(t *testing.T, r tree) { object(t, r)["kind"] = "bogus" }, `unknown kind "bogus"`},
		{"events: unknown severity", "events", 1, func(t *testing.T, r tree) { object(t, r)["severity"] = "fatal" }, `unknown severity "fatal"`},
		{"events: severity of another kind", "events", 1, func(t *testing.T, r tree) { object(t, r)["severity"] = "error" }, `severity "error" is not that of kind`},
		{"events: seq not increasing", "events", 2, func(t *testing.T, r tree) { object(t, r)["seq"] = 1 }, `seq 1 not after 1`},
		{"events: addr not hex", "events", 1, func(t *testing.T, r tree) { object(t, r)["addr"] = "40" }, `addr "40"`},
		{"events: negative time", "events", 1, func(t *testing.T, r tree) { object(t, r)["time_us"] = num("-1.000") }, `negative time_us`},
		{"events: flight phase", "events", -1, func(t *testing.T, r tree) { object(t, r, "flight", 0)["phase"] = "bogus" }, `unknown phase "bogus"`},
		{"events: flight interval", "events", -1, func(t *testing.T, r tree) { object(t, r, "flight", 0)["end_us"] = num("-5.000") }, `out of order`},
		{"events: flight key the writer does not emit", "events", -1, func(t *testing.T, r tree) { object(t, r, "flight", -1)["parent"] = 0 }, `unknown field "parent"`},
		{"events: flight trace without span", "events", -1, func(t *testing.T, r tree) { delete(object(t, r, "flight", -1), "span") }, `missing key "span"`},

		// Causal trees.
		{"causal: renamed key", "causal", 0, func(t *testing.T, r tree) { rename(object(t, r, "traces", -1), "total_cycles", "cycles") }, `unknown field "cycles"`},
		{"causal: dropped zero-valued key", "causal", 0, func(t *testing.T, r tree) { delete(object(t, r, "traces", -1, "spans", 0), "parent") }, `missing key "parent"`},
		{"causal: id", "causal", 0, func(t *testing.T, r tree) { object(t, r, "traces", -1)["seq"] = 77 }, `is not root_proc#seq`},
		{"causal: unknown phase", "causal", 0, func(t *testing.T, r tree) { object(t, r, "traces", -1, "spans", 1)["phase"] = "bogus" }, `unknown phase "bogus"`},
		{"causal: span ids not increasing", "causal", 0, func(t *testing.T, r tree) { object(t, r, "traces", -1, "spans", 2)["span"] = 2 }, `span ids not strictly increasing`},
		{"causal: second root", "causal", 0, func(t *testing.T, r tree) { object(t, r, "traces", -1, "spans", 1)["parent"] = 0 }, `parent 0 does not precede it`},
		{"causal: child escapes parent", "causal", 0, func(t *testing.T, r tree) { object(t, r, "traces", -1, "spans", 2)["end_us"] = num("1000000000.000") }, `escapes parent`},
		{"causal: total is not the span sum", "causal", 0, func(t *testing.T, r tree) { object(t, r, "traces", -1)["total_cycles"] = 1 }, `total_cycles says 1`},
		{"causal: critical path through a non-edge", "causal", 0, func(t *testing.T, r tree) {
			object(t, r, "traces", -1)["critical_path"] = []interface{}{1, 4}
		}, `critical_path step 1 -> 4 is not a parent-child edge`},
		{"causal: critical path elapsed", "causal", 0, func(t *testing.T, r tree) { object(t, r, "traces", -1)["critical_elapsed_us"] = num("1.000") }, `critical_elapsed_us`},

		// Series, standalone and as fig11's companion.
		{"series: renamed key", "series", 0, func(t *testing.T, r tree) { rename(object(t, r), "max_samples", "ring") }, `unknown field "ring"`},
		{"series: dropped zero-valued key", "fig11-series", 0, func(t *testing.T, r tree) { delete(object(t, r, "procs", 0), "evicted_windows") }, `missing key "evicted_windows"`},
		{"series: window not a power of two", "series", 0, func(t *testing.T, r tree) { object(t, r)["window_cycles"] = 1000 }, `window_cycles 1000`},
		{"series: evicted aggregate dropped", "series", 0, func(t *testing.T, r tree) { delete(object(t, r, "procs", 0), "evicted") }, `evicted aggregate`},
		{"series: ring bound", "series", 0, func(t *testing.T, r tree) { object(t, r)["max_samples"] = 1 }, `exceed the ring bound`},
		{"series: unknown counter", "series", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "totals", "counters")["bogus"] = 1 }, `unknown counter "bogus"`},
		{"series: unknown phase", "series", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "samples", 0, "cycles")["bogus"] = 1 }, `unknown phase "bogus"`},
		{"series: unknown op", "series", 0, func(t *testing.T, r tree) {
			object(t, r, "procs", 0, "samples", 0, "ops")["bogus"] = map[string]interface{}{"count": 1, "sum_cycles": 1}
		}, `unknown op "bogus"`},
		{"series: zero entry", "series", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "samples", 0, "counters")["root-mounts"] = 0 }, `zero "root-mounts" must be omitted`},
		{"series: window not increasing", "series", 0, func(t *testing.T, r tree) {
			object(t, r, "procs", 0, "samples", 1)["window"] = node(t, r, "procs", 0, "samples", 0, "window")
		}, `samples[1]: window`},
		{"series: totals window", "series", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "totals")["window"] = 0 }, `totals window 0`},
		{"series: counter delta breaks the exact sum", "fig11-series", 0, func(t *testing.T, r tree) {
			object(t, r, "procs", 0, "samples", 0, "counters")["mac-verifies"] = 1 << 40
		}, `counter "mac-verifies": evicted+samples sum to`},
		{"series: cycle aggregate a hair off the exact sum", "series", 0, func(t *testing.T, r tree) {
			cycles := object(t, r, "procs", 0, "evicted", "cycles")
			for k, v := range cycles {
				cycles[k] = num(string(v.(json.Number)) + "0000001")
				if !strings.Contains(string(v.(json.Number)), ".") {
					cycles[k] = num(string(v.(json.Number)) + ".0000001")
				}
				return
			}
			t.Fatal("evicted aggregate has no cycles")
		}, `must be exact`},
		{"series: negative cycles", "series", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "samples", 0, "cycles")["mac"] = -1 }, `samples[0]: negative mac cycles`},

		// Sidecars: the header, the sections the old checker read, and the
		// procs / hists / per-proc counters it never did.
		{"sidecar: renamed key", "fig10", 0, func(t *testing.T, r tree) { rename(object(t, r), "profile", "cost_profile") }, `unknown field "cost_profile"`},
		{"sidecar: dropped zero-valued key", "fig11", 0, func(t *testing.T, r tree) { delete(object(t, r, "series", "procs", 0), "evicted_windows") }, `document.series.procs[0]: missing key "evicted_windows"`},
		{"sidecar: empty description", "fig10", 0, func(t *testing.T, r tree) { object(t, r)["description"] = "" }, `description`},
		{"sidecar: bad unit", "fig10", 0, func(t *testing.T, r tree) { object(t, r, "totals", 0)["unit"] = "furlongs" }, `unknown unit "furlongs"`},
		{"sidecar: phase sum != total", "fig10", 0, func(t *testing.T, r tree) { object(t, r)["check_total_cycles"] = 1 }, `does not account for check_total_cycles`},
		{"sidecar: phases do not sum", "fig10", 0, func(t *testing.T, r tree) { object(t, r)["phase_sum_cycles"] = 1 }, `phase_sum_cycles says 1`},
		{"sidecar: unknown cluster phase", "fig10", 0, func(t *testing.T, r tree) { object(t, r, "phase_cycles", 0)["phase"] = "bogus" }, `phase "bogus" unknown`},
		{"sidecar: unknown proc phase", "fig10", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "phases", 0)["phase"] = "bogus" }, `phase "bogus" unknown`},
		{"sidecar: negative proc cycles", "fig10", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "phases", 0)["cycles"] = -1 }, `negative`},
		{"sidecar: proc phases do not re-add", "fig10", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "phases", 0)["cycles"] = 1 }, `phases re-add to`},
		{"sidecar: unknown proc counter", "fig10", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0, "counters", 0)["counter"] = "bogus" }, `counter "bogus" unknown`},
		{"sidecar: unknown proc key", "fig10", 0, func(t *testing.T, r tree) { object(t, r, "procs", 0)["extra"] = 1 }, `unknown field "extra"`},
		{"sidecar: unknown hist op", "fig11", 0, func(t *testing.T, r tree) { object(t, r, "hists", 0)["op"] = "bogus" }, `unknown op`},
		{"sidecar: hist quantiles", "fig11", 0, func(t *testing.T, r tree) { object(t, r, "hists", 0)["p50_cycles"] = num("1000000000000") }, `quantiles not monotone`},
		{"sidecar: migration count", "fig10", 0, func(t *testing.T, r tree) { object(t, r, "totals", 3)["value"] = 2 }, `does not match 1 migration entries`},
		{"sidecar: migration cycles do not re-add", "fig10", 0, func(t *testing.T, r tree) { object(t, r, "migrations", 0)["total_cycles"] = 1 }, `migration-send-cycles + migration-recv-cycles`},
		{"sidecar: critical path longer than the trace", "fig10", 0, func(t *testing.T, r tree) { object(t, r, "migrations", 0)["critical_path_len"] = 99 }, `critical_path_len 99`},
		{"sidecar: series schema", "fig11", 0, func(t *testing.T, r tree) { object(t, r, "series")["schema"] = "mmt-series/v2" }, `series: want schema mmt-series/v1`},
		{"sidecar: series window", "fig11", 0, func(t *testing.T, r tree) { object(t, r, "series")["window_cycles"] = 1000 }, `power-of-two window_cycles`},
		{"sidecar: series evicted > windows", "fig11", 0, func(t *testing.T, r tree) { object(t, r, "series", "procs", 0)["evicted_windows"] = 1 << 40 }, `evicted_windows`},

		// Manifest.
		{"manifest: renamed key", "manifest", 0, func(t *testing.T, r tree) { rename(object(t, r), "regions", "region_count") }, `unknown field "region_count"`},
		{"manifest: dropped zero-valued key", "manifest", 0, func(t *testing.T, r tree) { delete(object(t, r), "epoch") }, `missing key "epoch"`},
		{"manifest: dropped machine key", "manifest", 0, func(t *testing.T, r tree) { delete(object(t, r, "machines", 0), "live_regions") }, `document.machines[0]: missing key "live_regions"`},
		{"manifest: null where a number belongs", "manifest", 0, func(t *testing.T, r tree) { object(t, r)["epoch"] = nil }, `document.epoch is null`},
		{"manifest: uppercase root hash", "manifest", 0, func(t *testing.T, r tree) {
			object(t, r)["root_hash"] = strings.ToUpper(node(t, r, "root_hash").(string))
		}, `root_hash`},
		{"manifest: short root hash", "manifest", 0, func(t *testing.T, r tree) { object(t, r)["root_hash"] = "abcd" }, `root_hash "abcd" is not 64 lowercase hex digits`},
		{"manifest: snapshot too small", "manifest", 0, func(t *testing.T, r tree) { object(t, r)["snapshot_bytes"] = 32 }, `snapshot_bytes 32`},
		{"manifest: tree levels", "manifest", 0, func(t *testing.T, r tree) { object(t, r)["tree_levels"] = 5 }, `tree_levels in [2,4]`},
		{"manifest: machines out of order", "manifest", 0, func(t *testing.T, r tree) { object(t, r, "machines", 1)["name"] = "aaa" }, `out of name order`},
		{"manifest: live regions", "manifest", 0, func(t *testing.T, r tree) { object(t, r, "machines", 0)["live_regions"] = 99 }, `live_regions 99`},
		{"manifest: empty link id", "manifest", 0, func(t *testing.T, r tree) { object(t, r)["links"] = []interface{}{""} }, `links[0]: empty id`},
	}
	two := append(append([]byte{}, artefact(t, "fig10")...), "{}\n"...)
	if err := render(io.Discard, two, 0); err == nil || !strings.Contains(err.Error(), "after top-level value") {
		t.Errorf("a second document after a sidecar: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line := tc.line
			if line < 0 {
				line = flightLine(t)
			}
			doc := mutate(t, artefact(t, tc.kind), line, func(r interface{}) { tc.edit(t, r) })
			var out bytes.Buffer
			err := render(&out, doc, 0)
			if err == nil {
				t.Fatal("mutated document validated")
			}
			if out.Len() != 0 {
				t.Fatalf("rendered before refusing:\n%s", out.String())
			}
			t.Log(err)
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejected, but the message does not name the field:\n got: %v\nwant: …%s…", err, tc.want)
			}
		})
	}
}

// TestRun: dispatch by shape (array, schema'd object, JSON Lines, bare
// sidecar object), the shapes that are nothing at all, and the exit
// status — 0, 1 on any bad file with the rest still rendered, 2 for
// usage.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	all, err := artefacts()
	if err != nil {
		t.Fatal(err)
	}
	var good []string
	var want bytes.Buffer // what run must print: each file's rendering, in order
	for kind, data := range all {
		data = append([]byte("\n \t"), data...)
		good = append(good, write(kind, data))
		if err := render(&want, data, 0); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	var stdout, stderr bytes.Buffer
	if status := run(good, &stdout, &stderr); status != 0 || stderr.Len() != 0 {
		t.Fatalf("valid artefacts: exit %d, stderr:\n%s", status, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("run printed something other than each file's rendering:\n%s", stdout.String())
	}

	var rest bytes.Buffer
	for _, p := range []string{good[0], good[1]} {
		data, _ := os.ReadFile(p)
		render(&rest, data, 0)
	}
	for name, tc := range map[string]struct{ data, want string }{
		"empty":          {"", "empty file"},
		"blank":          {" \n\t\n", "empty file"},
		"scalar":         {"42\n", "neither a JSON array"},
		"unknown-schema": {`{"schema": "mmt-future/v9"}`, `unknown schema "mmt-future/v9"`},
		"not-json":       {`{"schema": `, "not a JSON object"},
		"bare-object":    {`{}`, `missing key "description"`},
		"jsonl-tail":     {string(all["events"]) + "{\n", "event"},
	} {
		stdout.Reset()
		stderr.Reset()
		// One bad file among good ones: the rest still render, exit 1.
		bad := write(name, []byte(tc.data))
		status := run([]string{good[0], bad, good[1]}, &stdout, &stderr)
		if status != 1 || !bytes.Equal(stdout.Bytes(), rest.Bytes()) {
			t.Errorf("%s: exit %d, stdout:\n%s", name, status, stdout.String())
		}
		if !strings.HasPrefix(stderr.String(), "mmt-stat: "+bad+": ") || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr %q does not carry %q", name, stderr.String(), tc.want)
		}
	}

	stderr.Reset()
	if status := run([]string{filepath.Join(dir, "absent.json")}, &stdout, &stderr); status != 1 || !strings.Contains(stderr.String(), "absent.json") {
		t.Errorf("missing file: exit %d, stderr %q", status, stderr.String())
	}
	for _, args := range [][]string{nil, {"-tail"}, {"-bogus", good[0]}} {
		stderr.Reset()
		if status := run(args, &stdout, &stderr); status != 2 || stderr.Len() == 0 {
			t.Errorf("usage error %q: exit %d, stderr %q", args, status, stderr.String())
		}
	}
	stderr.Reset()
	if run(nil, &stdout, &stderr); !strings.Contains(stderr.String(), "usage:") {
		t.Errorf("no arguments: stderr %q", stderr.String())
	}

	// -addr reads the same two documents live off a debug server.
	c, err := mmt.New(mmt.WithTreeLevels(2), mmt.WithTracing(mmt.NewTraceSink()), mmt.WithDebugServer("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stdout.Reset()
	stderr.Reset()
	if status := run([]string{"-addr", c.DebugAddr()}, &stdout, &stderr); status != 0 ||
		!strings.Contains(stdout.String(), "latency histograms (cycles): no samples") || !strings.Contains(stdout.String(), "security-event ledger: 0 events") {
		t.Errorf("-addr: exit %d, stdout:\n%s\nstderr:\n%s", status, stdout.String(), stderr.String())
	}
}
