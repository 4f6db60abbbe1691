package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmt/internal/sim"
	"mmt/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// tracedTransfer runs the 8K Table IV transfer with a fresh sink — the
// fully deterministic fixture (fixed channel key, no attestation
// signatures anywhere on the wire).
func tracedTransfer(t *testing.T) (*trace.Sink, Table4Row) {
	t.Helper()
	sink := trace.NewSink()
	row, err := table4Measure(sim.Gem5Profile(), 8<<10, sink)
	if err != nil {
		t.Fatal(err)
	}
	return sink, row
}

// TestPhaseSumAccountsForFigureTotals is the sidecar invariant at its
// source: every channel charge is mirrored into exactly one trace
// phase, so the sink's phase totals account for SecureChannel+MMT.
func TestPhaseSumAccountsForFigureTotals(t *testing.T) {
	sink, row := tracedTransfer(t)
	sc := &Sidecar{
		Figure: "test", Profile: "gem5", Description: "8K transfer",
		Totals:           []SidecarTotal{{Name: "secure-channel", Value: float64(row.SecureChannel), Unit: "cycles"}},
		CheckTotalCycles: row.SecureChannel + row.MMT,
	}
	sc.fillFromMetrics(sink.Snapshot())
	if err := sc.Check(); err != nil {
		t.Fatal(err)
	}
	if sc.PhaseSumCycles == 0 {
		t.Fatal("no phases recorded")
	}
}

// TestSidecarFig10 runs the real figure-10 sidecar (the 2 MB point),
// checks its headline sanity and pins its bytes to the committed golden:
// the cycle model is deterministic, so any moved cycle, count or
// histogram row fails here (regenerate with -update).
func TestSidecarFig10(t *testing.T) {
	sc, err := SidecarForFigure("10", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Totals) != 6 || sc.Totals[0].Name != "secure-channel" || sc.Totals[1].Name != "mmt-delegation" {
		t.Fatalf("unexpected totals: %+v", sc.Totals)
	}
	if speedup := sc.Totals[2].Value; speedup < 100 {
		t.Fatalf("2M speedup %.1fx, want the paper's ~169x regime", speedup)
	}
	// The single 2 MB delegation shows up as exactly one causal trace.
	if sc.Totals[3].Name != "migrations" || sc.Totals[3].Value != 1 || len(sc.Migrations) != 1 {
		t.Fatalf("migration totals wrong: %+v / %+v", sc.Totals, sc.Migrations)
	}
	checkSidecarGolden(t, sc, "BENCH_fig10.golden.json")
}

// TestSidecarFig11 pins the fig11 sidecar at 2 000 accesses to its
// golden; JSON's Check holds the trace phases to every measured
// protected-memory cycle.
func TestSidecarFig11(t *testing.T) {
	sc, err := SidecarForFigure("11", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	checkSidecarGolden(t, sc, "BENCH_fig11.golden.json")
}

func checkSidecarGolden(t *testing.T, sc *Sidecar, name string) {
	t.Helper()
	got, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, got, name)
}

// checkGolden compares got with testdata/name byte for byte, or rewrites
// the file under -update. A mismatch names the first differing line with
// the two lines above it, so the moved row is named.
func checkGolden(t *testing.T, got []byte, name string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "<end of file>"
	}
	t.Fatalf("%s differs at line %d (run with -update if intended)\n%s\n got: %s\nwant: %s",
		golden, i+1, strings.Join(g[max(0, i-2):i], "\n"), line(g), line(w))
}

// TestSidecarUnknownFigure: unsupported figures fail loudly.
func TestSidecarUnknownFigure(t *testing.T) {
	if _, err := SidecarForFigure("9", 0); err == nil {
		t.Fatal("want error for unsupported figure")
	}
}

// TestChromeTraceTwoRunsByteIdentical: two independent simulated runs
// export byte-identical Chrome traces — no normalization, the testbed
// has no variable-length crypto on the wire. The output is also pinned
// against a committed golden file (regenerate with -update).
func TestChromeTraceTwoRunsByteIdentical(t *testing.T) {
	var runs [2][]byte
	for i := range runs {
		sink, _ := tracedTransfer(t)
		var buf bytes.Buffer
		if err := sink.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		runs[i] = buf.Bytes()
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("two identical runs produced different traces")
	}

	checkGolden(t, runs[0], "table4_8k_trace.golden.json")
}

// TestSidecarJSONDeterministic: the same figure twice marshals to the
// same bytes (structs only, no map order anywhere near the encoder).
func TestSidecarJSONDeterministic(t *testing.T) {
	var runs [2][]byte
	for i := range runs {
		sink, row := tracedTransfer(t)
		sc := &Sidecar{Figure: "10", Profile: "gem5", Description: "8K transfer", CheckTotalCycles: row.SecureChannel + row.MMT,
			Totals: []SidecarTotal{{Name: "mmt-delegation", Value: float64(row.MMT), Unit: "cycles"}}}
		sc.fillFromMetrics(sink.Snapshot())
		b, err := sc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = b
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("sidecar JSON not deterministic")
	}
}

// FuzzParseSidecar: mmt-stat reads sidecars from files, so ParseSidecar
// faces outside input. It must never panic, and what it accepts must
// write, through JSON, a sidecar that reads back as an equal value. The
// seeds are the fig10 and fig11 goldens, each of which must read back.
func FuzzParseSidecar(f *testing.F) {
	for _, golden := range []string{"BENCH_fig10.golden.json", "BENCH_fig11.golden.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			f.Fatal(err)
		}
		if _, err := ParseSidecar(data); err != nil {
			f.Fatalf("%s does not read back: %v", golden, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseSidecar(data)
		if err != nil {
			return
		}
		out, err := sc.JSON()
		if err != nil {
			t.Fatalf("accepted sidecar does not write: %v", err)
		}
		if back, err := ParseSidecar(out); err != nil || !reflect.DeepEqual(back, sc) {
			t.Fatalf("accepted sidecar does not read back as an equal value (%v):\n%s", err, out)
		}
	})
}
