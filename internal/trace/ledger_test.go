package trace

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mmt/internal/sim"
)

// TestEventKindNames: every kind has a distinct exporter name and the
// reverse lookup round-trips (ParseEvents resolves kinds through this table).
func TestEventKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := EventKind(0); int(k) < NumEventKinds; k++ {
		n := k.String()
		if n == "" || n == "event?" || seen[n] {
			t.Fatalf("bad kind name %q for %d", n, k)
		}
		seen[n] = true
		got, ok := Lookup(n, EventKind(NumEventKinds))
		if !ok || got != k {
			t.Fatalf("Lookup(%q) = %v, %v", n, got, ok)
		}
	}
	if _, ok := Lookup("no-such-kind", EventKind(NumEventKinds)); ok {
		t.Fatalf("Lookup accepted unknown name")
	}
}

// TestLedgerRecordAndSnapshot: events carry monotonic sequence numbers
// and snapshots are oldest-first copies.
func TestLedgerRecordAndSnapshot(t *testing.T) {
	s := NewSink()
	p := s.Probe("alice")
	p.Event(EvMigrationSend, sim.Time(1e-6), 0x100, "first")
	p.Event(EvAuthFail, sim.Time(2e-6), 0x200, "second")
	evs := s.SecEvents()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[0].Kind != EvMigrationSend || evs[0].Proc != "alice" || evs[0].Addr != 0x100 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Seq != 2 || evs[1].Detail != "second" {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	if s.EventsDropped() != 0 {
		t.Fatalf("dropped = %d, want 0", s.EventsDropped())
	}
	// Snapshot is a copy.
	evs[0].Detail = "mutated"
	if s.SecEvents()[0].Detail != "first" {
		t.Fatalf("SecEvents aliased ledger state")
	}
	s.Reset()
	if len(s.SecEvents()) != 0 || s.EventsDropped() != 0 {
		t.Fatalf("reset left ledger entries")
	}
	// Nil sink forms.
	var nilSink *Sink
	if nilSink.SecEvents() != nil || nilSink.EventsDropped() != 0 {
		t.Fatalf("nil sink ledger not empty")
	}
}

// TestLedgerRingWrap: the bounded ring keeps the newest entries,
// oldest-first, and reports the eviction count.
func TestLedgerRingWrap(t *testing.T) {
	s := NewSink()
	p := s.Probe("alice")
	for i := 0; i < DefaultEventCap+6; i++ {
		p.Event(EvReplayReject, sim.Time(float64(i)*1e-6), uint64(i), "e")
	}
	evs := s.SecEvents()
	if len(evs) != DefaultEventCap {
		t.Fatalf("retained = %d, want %d", len(evs), DefaultEventCap)
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want || uint64(ev.Addr) != want-1 {
			t.Fatalf("retained[%d] = %+v, want seq %d", i, ev, want)
		}
	}
	if got := s.EventsDropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

// TestLedgerMergeOrder: merging worker sinks serially in input order
// reproduces the serial ledger — same kinds, times and sequence numbers.
func TestLedgerMergeOrder(t *testing.T) {
	serial := NewSink()
	sp := serial.Probe("alice")
	for i := 0; i < 6; i++ {
		sp.Event(EvMigrationAccept, sim.Time(float64(i)*1e-6), uint64(i), "m")
	}
	want := serial.SecEvents()

	root := NewSink()
	for w := 0; w < 3; w++ {
		part := NewSink()
		pp := part.Probe("alice")
		for i := w * 2; i < w*2+2; i++ {
			pp.Event(EvMigrationAccept, sim.Time(float64(i)*1e-6), uint64(i), "m")
		}
		root.Merge(part)
	}
	got := root.SecEvents()
	if len(got) != len(want) {
		t.Fatalf("merged = %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("merged[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEventsJSONLShape: header line carries schema/counts, each event
// line parses, and the export is byte-deterministic.
func TestEventsJSONLShape(t *testing.T) {
	build := func() *Sink {
		s := NewSink()
		p := s.Probe("alice")
		p.Event(EvIntegrityFail, sim.Time(1.5e-6), 0xdead, "read: data line MAC")
		p.Event(EvCapDestroy, sim.Time(2e-6), 0, "monitor: capability freed")
		return s
	}
	var out bytes.Buffer
	if err := build().WriteEventsJSONL(&out); err != nil {
		t.Fatalf("export: %v", err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", lines, out.String())
	}
	doc, err := ParseEvents(out.Bytes())
	if err != nil || doc.Header.Dropped != 0 {
		t.Fatalf("export does not parse: %v\n%s", err, out.String())
	}
	// The document reads back as what writes the same bytes.
	var re bytes.Buffer
	if err := doc.write(&re); err != nil || !bytes.Equal(re.Bytes(), out.Bytes()) {
		t.Fatalf("parsed ledger re-encodes differently (%v):\n got %s\nwant %s", err, re.String(), out.String())
	}
	if !strings.Contains(out.String(), `"kind":"integrity-fail"`) || !strings.Contains(out.String(), `"addr":"0xdead"`) || !strings.Contains(out.String(), `"time_us":1.500`) {
		t.Fatalf("event line not in the documented form:\n%s", out.String())
	}
	var again bytes.Buffer
	if err := build().WriteEventsJSONL(&again); err != nil {
		t.Fatalf("re-export: %v", err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatalf("identical sinks exported differently")
	}
	// Nil sink writes a header with zero events.
	var empty bytes.Buffer
	if err := (*Sink)(nil).WriteEventsJSONL(&empty); err != nil {
		t.Fatalf("nil export: %v", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(empty.Bytes()))
	if !sc.Scan() || !strings.Contains(sc.Text(), `"events":0`) || sc.Scan() {
		t.Fatalf("nil export = %q", empty.String())
	}
}
