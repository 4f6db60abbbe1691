package mmt

import (
	"encoding/json"
	"io"
	"net/http"
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
// JSON, ledger JSONL, the expvar-style vars document, the text summary
// and the pprof index. The server observes read-only snapshots, so none
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

	events, _, err := trace.ParseEvents(get(t, base+"/debug/mmt/events"))
	if err != nil {
		t.Fatalf("events endpoint: %v", err)
	}
	accepted := false
	for _, ev := range events {
		accepted = accepted || ev.Kind == trace.EvMigrationAccept
	}
	if !accepted {
		t.Fatalf("ledger misses the delegation: %+v", events)
	}

	var vars struct {
		MMT struct {
			Events int `json:"events"`
		} `json:"mmt"`
	}
	if err := json.Unmarshal(get(t, base+"/debug/vars"), &vars); err != nil {
		t.Fatalf("vars endpoint: %v", err)
	}
	if vars.MMT.Events != len(events) {
		t.Fatalf("vars events %d != ledger %d", vars.MMT.Events, len(events))
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
	if _, err := http.Get(base + "/debug/vars"); err == nil {
		t.Fatal("server still serving after Close")
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
