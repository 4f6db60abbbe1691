package core

import (
	"errors"
	"fmt"
	"testing"

	"mmt/internal/trace"
)

// TestRecordRejectLedgerStrings holds the one verdict function to the
// event kinds and detail strings its three call sites used to spell out
// themselves (channel.Delegation.Recv, Monitor.Pump, Monitor.ImportClosure):
// the ledger is an exported, schema-checked artefact, so its text is
// format, not prose.
func TestRecordRejectLedgerStrings(t *testing.T) {
	wire := sampleClosure().Encode()
	verdicts := []struct {
		err  error
		kind trace.EventKind
	}{
		{fmt.Errorf("%w: counter 1 <= last 2", ErrReplay), trace.EvReplayReject},
		{fmt.Errorf("%w: address", ErrReorder), trace.EvReorderReject},
		{ErrAuth, trace.EvAuthFail},
		{fmt.Errorf("%w: transferred data line 3", ErrIntegrity), trace.EvIntegrityFail},
		{ErrBadClosure, trace.EvMigrationReject},
	}
	sites := []struct {
		who, what string
		details   [5]string
	}{
		{"delegation: ", "closure", [5]string{
			"delegation: counter not fresh", "delegation: address not monotonic", "delegation: sealed root unauthentic",
			"delegation: closure contents tampered", "delegation: malformed closure"}},
		{"monitor: ", "closure", [5]string{
			"monitor: counter not fresh", "monitor: address not monotonic", "monitor: sealed root unauthentic",
			"monitor: closure contents tampered", "monitor: malformed closure"}},
		{"monitor: ", "artifact", [5]string{
			"monitor: artifact counter not fresh", "monitor: artifact address not monotonic", "monitor: artifact sealed root unauthentic",
			"monitor: artifact contents tampered", "monitor: malformed artifact"}},
	}
	for _, site := range sites {
		sink := trace.NewSink()
		probe := sink.Probe("node")
		for _, v := range verdicts {
			if hint, named := RecordReject(probe, 1.5, v.err, wire, site.who, site.what); hint != 0xABCDEF || !named {
				t.Fatalf("hint %#x named %v, want the closure's cleartext address", hint, named)
			}
		}
		events := sink.SecEvents()
		if len(events) != len(verdicts) {
			t.Fatalf("%d ledger events, want %d", len(events), len(verdicts))
		}
		for i, ev := range events {
			if ev.Kind != verdicts[i].kind || ev.Detail != site.details[i] || ev.Addr != 0xABCDEF || ev.Time != trace.Micros(1.5) {
				t.Errorf("%s%s verdict %d: kind %v detail %q addr %#x", site.who, site.what, i, ev.Kind, ev.Detail, ev.Addr)
			}
		}
		if got := sink.Snapshot().Procs[0].Counters[trace.CtrClosuresRejected]; got != uint64(len(verdicts)) {
			t.Errorf("CtrClosuresRejected = %d, want %d", got, len(verdicts))
		}
	}

	// A wire too damaged to carry a hint is still recorded, but unnamed.
	sink := trace.NewSink()
	hint, named := RecordReject(sink.Probe("node"), 0, errors.New("boom"), wire[:10], "monitor: ", "closure")
	if hint != 0 || named || len(sink.SecEvents()) != 1 {
		t.Fatalf("undecodable wire: hint %#x named %v events %d", hint, named, len(sink.SecEvents()))
	}
}
