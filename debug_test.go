package mmt

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mmt/internal/trace"
)

// get fetches one debug endpoint and returns the body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDebugServer boots a traced cluster with the /debug endpoint, runs
// the quickstart tour, and validates every endpoint: schema'd histogram
// JSON, ledger JSONL, the ledger count on the metrics page, the text
// summary and the pprof index. The server observes read-only snapshots, so none
// of these requests disturb the simulated timeline.
func TestDebugServer(t *testing.T) {
	sink := NewTraceSink()
	c, err := New(WithTreeLevels(2), WithRegions(6), WithTracing(sink), WithDebugServer("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.DebugAddr()
	if addr == "" || !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("bad DebugAddr: %q", addr)
	}

	// Drive the tour so the endpoints have something to show.
	alice, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	link, err := c.Connect(alice.Spawn("p", nil), bob.Spawn("q", nil))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(link.Sender())
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	timelineBefore := c.Metrics().TotalCycles()
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Receive(link.Receiver()); err != nil {
		t.Fatal(err)
	}

	base := "http://" + addr

	hist, err := trace.ParseHist(get(t, base+"/debug/mmt/hist"))
	if err != nil {
		t.Fatalf("hist endpoint: %v", err)
	}
	if len(hist.Procs) != 2 || hist.Procs[0].Proc != "alice" {
		t.Fatalf("hist procs: %+v", hist.Procs)
	}

	ledger, err := trace.ParseEvents(get(t, base+"/debug/mmt/events"))
	if err != nil {
		t.Fatalf("events endpoint: %v", err)
	}
	events := ledger.Events
	accepted := false
	for _, ev := range events {
		accepted = accepted || ev.Kind == trace.EvMigrationAccept
	}
	if !accepted {
		t.Fatalf("ledger misses the delegation: %+v", events)
	}

	page := string(get(t, base+"/debug/mmt/metrics"))
	if want := fmt.Sprintf("\nmmt_sec_events_total %d\n", len(events)); !strings.Contains(page, want) {
		t.Fatalf("metrics page does not count the %d ledger entries:\n%s", len(events), page)
	}

	// Without WithSampling the series endpoint is a 404, and the exporter
	// behind it says why.
	if _, ok := c.Series(); ok {
		t.Fatal("Series reports sampling on a cluster without WithSampling")
	}
	resp, err := http.Get(base + "/debug/mmt/series")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("series endpoint without sampling: status %d, want 404", resp.StatusCode)
	}
	if err := c.TraceSink().WriteSeriesJSON(io.Discard); err == nil || !strings.Contains(err.Error(), "sampling not enabled") {
		t.Fatalf("WriteSeriesJSON without sampling: %v", err)
	}

	if sum := get(t, base+"/debug/mmt/summary"); !strings.Contains(string(sum), "alice") {
		t.Fatalf("summary misses alice:\n%s", sum)
	}
	if idx := get(t, base+"/debug/pprof/"); !strings.Contains(string(idx), "goroutine") {
		t.Fatal("pprof index not served")
	}

	// Serving is free on the simulated timeline: the only cycles since the
	// pre-transfer snapshot are the delegation's own.
	delegated := c.Metrics().TotalCycles() - timelineBefore
	again := get(t, base+"/debug/mmt/hist")
	if c.Metrics().TotalCycles()-timelineBefore != delegated {
		t.Fatal("serving /debug charged simulated cycles")
	}
	_ = again

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/debug/mmt/hist"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// sampleLine is one OpenMetrics sample: name{labels} value.
var sampleLine = regexp.MustCompile(`^([a-z_]+)(\{[^{}]*\})? (\S+)$`)

// TestDebugMetricsAndSeries scrapes /debug/mmt/metrics and
// /debug/mmt/series on a sampled cluster: every sample line of the
// exposition parses, its counter and phase-cycle samples are exactly
// Cluster.Metrics, the page ends in "# EOF", and the series document is
// one ParseSeries accepts and equal to Cluster.Series.
func TestDebugMetricsAndSeries(t *testing.T) {
	sink := NewTraceSink()
	c, err := New(WithTreeLevels(2), WithRegions(6), WithTracing(sink),
		WithSampling(SamplingConfig{WindowCycles: 1 << 10}), WithDebugServer("127.0.0.1:0"))
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
	p := alice.Spawn("p", nil)
	if p.Name() != "p" || p.Machine() != alice {
		t.Fatalf("enclave reports %q on %v, want p on alice", p.Name(), p.Machine())
	}
	link, err := c.Connect(p, bob.Spawn("q", nil))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(p)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := p.Buffer(buf.Cap()); err != nil || again.Cap() != buf.Cap() {
		t.Fatalf("Buffer(Cap()) = %v, %v", again, err)
	}
	if err := buf.Write(0, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Receive(link.Receiver()); err != nil {
		t.Fatal(err)
	}
	base := "http://" + c.DebugAddr()

	page := string(get(t, base+"/debug/mmt/metrics"))
	if !strings.HasSuffix(page, "\n# EOF\n") {
		t.Fatalf("exposition does not end in # EOF:\n%s", page)
	}
	want := map[string]string{}
	for _, p := range c.Metrics().Procs {
		for ctr := TraceCounter(0); ctr < trace.NumCounters; ctr++ {
			if v := p.Counters[ctr]; v != 0 {
				want[fmt.Sprintf("mmt_counter_total{machine=%q,counter=%q}", p.Proc, ctr)] = strconv.FormatUint(v, 10)
			}
		}
		for ph := TracePhase(0); ph < trace.NumPhases; ph++ {
			if v := p.Cycles[ph]; v != 0 {
				want[fmt.Sprintf("mmt_phase_cycles_total{machine=%q,phase=%q}", p.Proc, ph)] = strconv.FormatFloat(float64(v), 'f', -1, 64)
			}
		}
	}
	got := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("sample line %q is not name{labels} value", line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		if m[1] == "mmt_counter_total" || m[1] == "mmt_phase_cycles_total" {
			got[m[1]+m[2]] = m[3]
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("exposition counters and phase cycles differ from Metrics:\n got %v\nwant %v", got, want)
	}
	if c.EventsDropped() != 0 || !strings.Contains(page, "\nmmt_sec_events_dropped_total 0\n") {
		t.Fatalf("ledger dropped %d entries on a short run", c.EventsDropped())
	}

	doc, err := trace.ParseSeries(get(t, base+"/debug/mmt/series"))
	if err != nil {
		t.Fatalf("series endpoint: %v", err)
	}
	live, ok := c.Series()
	if !ok || len(live.Procs) != 2 || !reflect.DeepEqual(doc, live) {
		t.Fatalf("series endpoint differs from Cluster.Series (sampling %v):\n got %+v\nwant %+v", ok, doc, live)
	}
}

// TestDebugServerWithoutTracing: the endpoint works (empty documents) on
// an untraced cluster, and a second Close is a no-op.
func TestDebugServerWithoutTracing(t *testing.T) {
	c, err := New(WithTreeLevels(2), WithRegions(2), WithDebugServer("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hist, err := trace.ParseHist(get(t, "http://"+c.DebugAddr()+"/debug/mmt/hist"))
	if err != nil || len(hist.Procs) != 0 {
		t.Fatalf("untraced hist endpoint: %v, %+v", err, hist)
	}
}

// TestDebugServerBadAddr: an unusable listen address surfaces as a New
// error instead of a background panic.
func TestDebugServerBadAddr(t *testing.T) {
	if _, err := New(WithDebugServer("256.0.0.1:bad")); err == nil {
		t.Fatal("want listen error")
	}
}
