package main

import (
	"bytes"
	"strings"
	"testing"

	"mmt"
	"mmt/internal/bench"
)

// exports runs the quickstart scenario with tracing and sampling on and
// returns the four sink exports mmt-stat renders.
func exports(t *testing.T) map[string][]byte {
	t.Helper()
	sink := mmt.NewTraceSink()
	c, err := mmt.New(mmt.WithTreeLevels(2), mmt.WithRegions(6), mmt.WithTracing(sink),
		mmt.WithSampling(mmt.SamplingConfig{WindowCycles: 1 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	alice, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	link, err := c.Connect(alice.Spawn("producer", []byte("app")), bob.Spawn("consumer", []byte("app")))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(link.Sender())
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, []byte("secret bytes")); err != nil {
		t.Fatal(err)
	}
	if err := link.Delegate(buf, mmt.OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	got, err := link.Receive(link.Receiver())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Read(0, 12); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for kind, write := range map[string]func(*bytes.Buffer) error{
		"hist":   func(b *bytes.Buffer) error { return sink.WriteHistJSON(b) },
		"events": func(b *bytes.Buffer) error { return sink.WriteEventsJSONL(b) },
		"causal": func(b *bytes.Buffer) error { return sink.WriteCausalJSON(b) },
		"series": func(b *bytes.Buffer) error { return sink.WriteSeriesJSON(b) },
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		out[kind] = b.Bytes()
	}
	return out
}

// TestRenderEveryKind: each export the command accepts goes through its
// strict parser and comes out as the documented table, the same bytes
// every time.
func TestRenderEveryKind(t *testing.T) {
	docs := exports(t)
	sc, series, err := bench.SeriesForFigure("11", 400)
	if err != nil {
		t.Fatal(err)
	}
	if docs["sidecar"], err = sc.JSON(); err != nil {
		t.Fatal(err)
	}
	docs["fig11-series"] = series
	want := map[string][]string{
		"hist":         {"latency histograms (cycles):", "proc   op", "alice  migration-send  1 ", "bob    migration-recv  1 "},
		"events":       {"security-event ledger: 3 events (0 dropped, showing 3):", "migration-accept", "monitor: closure installed", "0x"},
		"causal":       {"causal traces: 2", "alice#2  (", "└─* 1 alice/send [", "bob/recv", " cycles"},
		"series":       {"time series: 2 procs, window 1024 cycles, ring 64 samples", "alice", "▁"},
		"sidecar":      {"figure 11 totals:", "protected-memory", "read-p99-migration-cycles", "latency histograms (cycles):", "fig11-lat/busy  local-read"},
		"fig11-series": {"window 16384 cycles", "astar/L2", "█"},
	}
	for kind, data := range docs {
		var first, second bytes.Buffer
		if err := render(&first, data, 0); err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if err := render(&second, data, 0); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: second rendering differs (err %v)", kind, err)
		}
		for _, s := range want[kind] {
			if !strings.Contains(first.String(), s) {
				t.Errorf("%s: rendering lacks %q:\n%s", kind, s, first.String())
			}
		}
	}

	var tail bytes.Buffer
	if err := render(&tail, docs["events"], 1); err != nil {
		t.Fatal(err)
	}
	if s := tail.String(); !strings.Contains(s, "3 events (0 dropped, showing 1)") ||
		!strings.Contains(s, "delegation-ack") || strings.Contains(s, "migration-send") {
		t.Errorf("-tail 1 did not keep exactly the newest entry:\n%s", s)
	}
}

// TestRenderRefuses: what mmt-tracecheck would reject is not rendered,
// and neither is a kind the command has no table for.
func TestRenderRefuses(t *testing.T) {
	docs := exports(t)
	for name, tc := range map[string]struct{ data, want string }{
		"unknown key":      {`{"schema": "mmt-hist/v1", "procs": [], "extra": 1}`, `unknown key "extra"`},
		"broken invariant": {strings.Replace(string(docs["causal"]), `"parent": 1`, `"parent": 7`, 1), "parent 7 does not precede it"},
		"manifest":         {`{"schema": "mmt-manifest/v1"}`, "unsupported document"},
		"chrome trace":     {`[]`, "not a JSON document"},
		"bare object":      {`{}`, "unsupported document"},
		"bad sidecar":      {`{"figure": "11"}`, `missing key "profile"`},
	} {
		var out bytes.Buffer
		if err := render(&out, []byte(tc.data), 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error naming %q, got %v", name, tc.want, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: rendered before refusing:\n%s", name, out.String())
		}
	}
}

// TestSparkline pins the glyph scale: the peak takes the tallest block,
// an active zero-cycle window still draws the lowest one.
func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{0, 1, 4, 8}, 8); got != "▁▁▄█" {
		t.Fatalf("sparkline = %q", got)
	}
	if got := sparkline([]float64{0, 0}, 0); got != "▁▁" {
		t.Fatalf("all-zero sparkline = %q", got)
	}
	if got := sparkline(nil, 0); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
}
