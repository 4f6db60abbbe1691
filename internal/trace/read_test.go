package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmt/internal/sim"
)

// TestDecodeStrict: required-ness comes from the writer's tags — a key
// without omitempty must be there even when its value is the zero one,
// at any depth; omitempty keys may be absent; nothing undeclared, null
// or trailing is let through.
func TestDecodeStrict(t *testing.T) {
	type row struct {
		Name string `json:"name"`
		N    uint64 `json:"n"`
		Note string `json:"note,omitempty"`
	}
	type doc struct {
		Title string `json:"title"`
		Rows  []row  `json:"rows"`
		Extra *row   `json:"extra,omitempty"`
		Tags  []int  `json:"tags,omitempty"`
		Count int    `json:"count,omitzero"`
	}
	for data, want := range map[string]string{
		`{"title": "", "rows": []}`:                                    "",
		`{"title": "t", "rows": [{"name": "a", "n": 0}]}`:              "",
		`{"title": "t", "rows": [{"name": "a", "n": 0, "note": "x"}]}`: "",
		`{"title": "t", "rows": [], "extra": {"name": "", "n": 0}}`:    "",
		`{"rows": []}`: `document: missing key "title"`,
		`{"title": "t", "rows": [{"name": "a", "n": 1}, {"name": "b"}]}`:   `document.rows[1]: missing key "n"`,
		`{"title": "t", "rows": [], "extra": {"n": 1}}`:                    `document.extra: missing key "name"`,
		`{"title": null, "rows": []}`:                                      `"title" is null`,
		`{"title": "t", "rows": null}`:                                     `"rows" is null`,
		`{"title": "t", "rows": [], "more": 1}`:                            `document: unknown key "more"`,
		`{"title": "t", "rows": [], "tags": [1], "count": 2}`:              "",
		`{"title": "t", "rows": [], "tags": []}`:                           `document: zero "tags" must be omitted`,
		`{"title": "t", "rows": [], "count": 0}`:                           `document: zero "count" must be omitted`,
		`{"title": "t", "rows": [{"name": "a", "n": 1, "colour": "red"}]}`: `document.rows[0]: unknown key "colour"`,
		`{"title": "t", "rows": [{"name": "a", "n": -1}]}`:                 `bad "n"`,
		`{"title": "t", "rows": []} {}`:                                    "after top-level value",
	} {
		var d doc
		err := DecodeStrict("test doc", []byte(data), &d)
		if want == "" && err != nil || want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("%s: got %v, want %q", data, err, want)
		}
	}
}

// artefactCodec is one artefact's reader, and the writer of the value it
// returns.
type artefactCodec struct {
	name  string
	read  func([]byte) (interface{}, error)
	write func(io.Writer, interface{}) error
}

func encodeDoc(w io.Writer, v interface{}) error { return newEncoder(w).Encode(v) }

var artefactCodecs = []artefactCodec{
	{"hist", func(b []byte) (interface{}, error) { return ParseHist(b) }, encodeDoc},
	{"events", func(b []byte) (interface{}, error) { return ParseEvents(b) },
		func(w io.Writer, v interface{}) error { return v.(*EventsDoc).write(w) }},
	{"causal", func(b []byte) (interface{}, error) { return ParseCausal(b) }, encodeDoc},
	{"series", func(b []byte) (interface{}, error) { return ParseSeries(b) },
		func(w io.Writer, v interface{}) error { return encodeDoc(w, seriesDoc{SeriesSchema, v.(SeriesView)}) }},
	{"chrome", func(b []byte) (interface{}, error) { return ParseChromeTrace(b) }, encodeDoc},
}

// seedSink records a little of everything the artefacts carry: an
// evicting series, histograms, a causal trace across two processes, and
// a warn entry whose flight recorder holds a causally linked span.
func seedSink() *Sink {
	const window = 1 << 6
	s := NewSink()
	if err := s.EnableSeries(SeriesConfig{WindowCycles: window}); err != nil {
		panic(err)
	}
	a, b := s.Probe("alice"), s.Probe("bob")
	clock := sim.NewClock(1e9)
	clock.SetWindowHook(window, a.ObserveWindow)
	for i := 0; i < 2*DefaultSeriesCap; i++ {
		a.Charge(clock, PhaseMAC, sim.Cycles(i%7)+0.5)
		a.Count(CtrMACVerifies, 1)
		a.RecordOp(OpLocalRead, sim.Cycles(40+i), 1)
		clock.AdvanceCycles(100)
	}
	now := clock.Now()
	sent := a.CausalSpan(a.NewTrace(), PhaseSend, now, now+2e-6, 1200.25)
	b.CausalSpan(sent, PhaseRecv, now+5e-7, now+1.5e-6, 800)
	b.RecordOp(OpMigrationRecv, 800, 1)
	a.Event(EvMigrationSend, now, 0x40, "closure sealed")
	b.Event(EvStaleCounter, now+2e-6, 0x1000, "stale counter")
	return s
}

// TestSeriesRefusesZeroEvicted: the writer omits the evicted aggregate
// when nothing was evicted, so the reader refuses one given as zeros.
func TestSeriesRefusesZeroEvicted(t *testing.T) {
	s := NewSink()
	if err := s.EnableSeries(SeriesConfig{WindowCycles: 1 << 6}); err != nil {
		t.Fatal(err)
	}
	s.Probe("alice").Count(CtrMACVerifies, 1)
	var buf bytes.Buffer
	if err := s.WriteSeriesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSeries(buf.Bytes()); err != nil {
		t.Fatalf("the written series does not read back: %v", err)
	}
	zero := bytes.Replace(buf.Bytes(), []byte(`"evicted_through":0,`),
		[]byte(`"evicted_through":0,"evicted":{"window":0,"counters":{},"cycles":{},"ops":{}},`), 1)
	if _, err := ParseSeries(zero); err == nil || !strings.Contains(err.Error(), `zero "evicted" must be omitted`) {
		t.Fatalf("a zero evicted aggregate was not refused: %v\n%s", err, zero)
	}
}

// FuzzArtefactReaders hands the same bytes to every artefact reader —
// the bytes mmt-stat reads from files and /debug scrapes. No reader
// panics, and whatever one accepts re-encodes to a document it accepts
// again with an equal value. The seeds are the quickstart goldens, the
// five artefacts of seedSink, each of which reads back as the document
// its sink builds, and two hand-written documents.
func FuzzArtefactReaders(f *testing.F) {
	for _, golden := range []string{"quickstart_trace.golden.json", "quickstart_causal.golden.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", golden))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	s := seedSink()
	live, _ := s.SeriesSnapshot()
	if ev := s.SecEvents(); live.Procs[0].EvictedWindows == 0 || len(ev) != 2 || !ev[1].Flight[len(ev[1].Flight)-1].Trace.Valid() {
		f.Fatal("the seed sink no longer reaches an evicted aggregate and a causally linked flight span")
	}
	built := map[string]interface{}{"hist": s.Snapshot().histDoc(), "events": s.eventsDoc(),
		"causal": s.causalDoc(), "series": live, "chrome": s.chromeTrace()}
	for _, c := range artefactCodecs {
		var buf, again bytes.Buffer
		if err := c.write(&buf, built[c.name]); err != nil {
			f.Fatal(err)
		}
		if v, err := c.read(buf.Bytes()); err != nil || c.write(&again, v) != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
			f.Fatalf("%s: the seed does not read back as what writes it (%v):\n%s", c.name, err, buf.String())
		}
		f.Add(buf.Bytes())
	}
	// Spellings the writers never use, each read as what re-encodes to
	// it: times past 1 ns resolution or past 2^53, a zero-padded seq and
	// address.
	f.Add([]byte(`[{"ph":"M","pid":1,"tid":1,"name":"process_name","args":{"name":"a"}},` +
		`{"ph":"X","pid":1,"tid":1,"name":"mac","cat":"mmt","ts":1.23456,"dur":1e300,"args":{"trace":"a#01","span":1,"parent":0}},` +
		`{"ph":"C","pid":1,"tid":1,"name":"counters","ts":123456789012345678901.5,"args":{"mac-verifies":3}}]`))
	f.Add([]byte(`{"schema":"mmt-events/v1","events":1,"dropped":0}` + "\n" +
		`{"seq":1,"proc":"a","kind":"stale-counter","severity":"warn","window":0,"time_us":0.0004,"addr":"0x00ff","detail":"",` +
		`"flight":[{"phase":"mac","begin_us":1e-9,"end_us":1e300,"trace":"a#1","span":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range artefactCodecs {
			v, err := c.read(data)
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := c.write(&buf, v); err != nil {
				t.Fatalf("%s: accepted, but does not re-encode: %v", c.name, err)
			}
			if again, err := c.read(buf.Bytes()); err != nil || !reflect.DeepEqual(again, v) {
				t.Fatalf("%s: re-encoded document reads back as %+v (%v), not %+v:\n%s", c.name, again, err, v, buf.String())
			}
		}
	})
}

// TestDecodeStrictNamesFirstKey: with several unknown keys, in an object
// or in a named array, the error names the first in key order, so the
// same bad document always gets the same message.
func TestDecodeStrictNamesFirstKey(t *testing.T) {
	type doc struct {
		Cycles PhaseCycles `json:"cycles,omitempty"`
	}
	for data, want := range map[string]string{
		`{"zz": 1, "yy": 1, "ab": 1, "xx": 1}`:             `unknown key "ab"`,
		`{"cycles": {"zz": 1, "yy": 1, "ab": 1, "xx": 1}}`: `unknown key "ab"`,
	} {
		var d doc
		if err := DecodeStrict("test doc", []byte(data), &d); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want %q", data, err, want)
		}
	}
}

// TestTraceIDText: a trace ID reads back from "proc#seq" and nothing else.
func TestTraceIDText(t *testing.T) {
	var id TraceID
	if err := id.UnmarshalText([]byte("a#b#7")); err != nil || id != (TraceID{Proc: "a#b", Seq: 7}) {
		t.Fatalf("a#b#7: %+v, %v", id, err)
	}
	for _, bad := range []string{"", "a", "#7", "a#", "a#x", "a#-1"} {
		if err := id.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("%q accepted as %+v", bad, id)
		}
	}
}
