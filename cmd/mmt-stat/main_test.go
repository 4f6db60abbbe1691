package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRenderEveryKind: each artefact the command reads goes through its
// strict parser and comes out as the documented table, the same bytes
// every time.
func TestRenderEveryKind(t *testing.T) {
	docs, err := artefacts()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"chrome":       {"chrome trace: 18 spans", "proc   phase    spans  total_us  max_us", "alice  send     3 ", "bob    recv     3 "},
		"hist":         {"latency histograms (cycles):", "proc   op", "alice  migration-send  3 ", "bob    migration-recv  2 "},
		"events":       {"security-event ledger: 10 events (0 dropped, showing 10):", "migration-accept", "monitor: closure installed", "stale-counter", "0x"},
		"causal":       {"causal traces: 4", "alice#2  (", "└─* 1 alice/send [", "bob/recv", " cycles"},
		"series":       {"time series: 2 procs, window 256 cycles, ring 64 samples", "alice", "▁"},
		"fig10":        {"figure 10 totals:", "mmt-delegation", "sender    migration-send  1 "},
		"fig11":        {"figure 11 totals:", "protected-memory", "read-p99-migration-cycles", "latency histograms (cycles):", "fig11-lat/busy  local-read"},
		"fig11-series": {"window 16384 cycles", "astar/L2", "█"},
		"manifest":     {"snapshot manifest: epoch 0, ", "2 tree levels, 8 regions, profile gem5, 1 links", "\n  root ", "machine  node_id  clock_s", "alice    1 ", "bob      2 "},
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
	if s := tail.String(); !strings.Contains(s, "10 events (0 dropped, showing 1)") ||
		!strings.Contains(s, "stale-counter") || strings.Contains(s, "migration-send") {
		t.Errorf("-tail 1 did not keep exactly the newest entry:\n%s", s)
	}
}

// TestRenderRefuses: what a strict parser rejects is not rendered, of
// every kind, and neither is a schema the command does not know.
func TestRenderRefuses(t *testing.T) {
	docs, err := artefacts()
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct{ data, want string }{
		"unknown key":      {`{"schema": "mmt-hist/v1", "procs": [], "extra": 1}`, `unknown field "extra"`},
		"broken invariant": {strings.Replace(string(docs["causal"]), `"parent":1`, `"parent":7`, 1), "parent 7 does not precede it"},
		"bad manifest":     {`{"schema": "mmt-manifest/v1"}`, `missing key "epoch"`},
		"bad chrome trace": {`[{"ph": "X"}]`, `missing key "cat"`},
		"unknown schema":   {`{"schema": "mmt-future/v9"}`, `unknown schema "mmt-future/v9"`},
		"bare object":      {`{}`, `missing key "description"`},
		"bad sidecar":      {`{"figure": "11"}`, `missing key "description"`},
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
