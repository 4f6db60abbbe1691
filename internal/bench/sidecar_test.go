package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
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

// TestSidecarFig10 runs the real figure-10 sidecar (the 2 MB point) and
// checks its invariant plus headline sanity.
func TestSidecarFig10(t *testing.T) {
	sc, err := SidecarForFigure("10", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Check(); err != nil {
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
	if _, err := sc.JSON(); err != nil {
		t.Fatal(err)
	}
}

// TestSidecarFig11 checks the engine-side invariant: the trace phases
// account for every measured protected-memory cycle.
func TestSidecarFig11(t *testing.T) {
	sc, err := SidecarForFigure("11", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Check(); err != nil {
		t.Fatal(err)
	}
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

	golden := filepath.Join("testdata", "table4_8k_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, runs[0], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(runs[0], want) {
		t.Fatalf("trace deviates from golden file (run with -update if intended)\ngot:\n%s", runs[0])
	}
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
