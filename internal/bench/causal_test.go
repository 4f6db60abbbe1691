package bench

import (
	"bytes"
	"testing"

	"mmt/internal/trace"
)

// causalFig11 runs the fig11 sweep at the given worker count on a fresh
// sink and returns the causal export bytes plus the sink.
func causalFig11(t *testing.T, workers, accesses int) ([]byte, *trace.Sink) {
	t.Helper()
	SetWorkers(workers)
	sink := trace.NewSink()
	if _, _, err := fig11Traced(accesses, sink); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sink.WriteCausalJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sink
}

// TestCausalExportByteIdenticalAcrossWorkers is the determinism half of
// the causal-tracing contract: the mmt-causal/v1 export is a pure
// function of the simulated run, so serial and parallel sweeps must
// serialize to identical bytes. Span IDs are minted per trace and trace
// IDs re-based at merge, so no worker interleaving can leak into the
// output. Run with -race this also exercises the sink's locking.
func TestCausalExportByteIdenticalAcrossWorkers(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)

	serial, _ := causalFig11(t, 1, 800)
	if len(serial) == 0 || !bytes.Contains(serial, []byte(trace.CausalSchema)) {
		t.Fatalf("serial export empty or unschema'd:\n%s", serial)
	}
	for _, w := range []int{2, 4, 8} {
		got, _ := causalFig11(t, w, 800)
		if !bytes.Equal(serial, got) {
			t.Fatalf("causal export at %d workers deviates from serial run", w)
		}
	}
}

// TestFig11MigrationTreesMatchSidecar is the accounting half: every
// migration in the sweep appears as exactly one rooted span tree, and
// the cycle totals over those trees re-add to the sidecar's
// migration-send-cycles + migration-recv-cycles totals.
func TestFig11MigrationTreesMatchSidecar(t *testing.T) {
	sc, err := SidecarForFigure("11", 800)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Migrations) == 0 {
		t.Fatal("fig11 sweep produced no migration traces")
	}
	totals := map[string]float64{}
	for _, tot := range sc.Totals {
		totals[tot.Name] = tot.Value
	}
	if got := totals["migrations"]; got != float64(len(sc.Migrations)) {
		t.Fatalf("migrations total %v != %d migration entries", got, len(sc.Migrations))
	}
	var sum float64
	seen := map[string]bool{}
	for _, mg := range sc.Migrations {
		if seen[mg.ID] {
			t.Fatalf("migration %s appears in more than one tree", mg.ID)
		}
		seen[mg.ID] = true
		if mg.Spans < 2 {
			t.Errorf("migration %s: a cross-machine tree needs >= 2 spans, got %d", mg.ID, mg.Spans)
		}
		if mg.CriticalPathLen < 1 || mg.CriticalPathLen > mg.Spans {
			t.Errorf("migration %s: critical path length %d outside [1,%d]", mg.ID, mg.CriticalPathLen, mg.Spans)
		}
		sum += float64(mg.TotalCycles)
	}
	want := totals["migration-send-cycles"] + totals["migration-recv-cycles"]
	if diff := sum - want; diff > 1e-9*want || diff < -1e-9*want {
		t.Fatalf("tree cycle totals %.6f != sidecar migration totals %.6f", sum, want)
	}
	// Check() enforces the same invariant; keep the two in agreement.
	if err := sc.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCausalTreesAreWellFormed runs the one well-formedness check (the
// same the mmt-causal/v1 reader applies to a file) over a live sink's
// traces at the recorder's precision, below the document's 1 ns:
// parents precede children, children nest inside their parent's
// interval, exactly one root per trace, a real critical path.
func TestCausalTreesAreWellFormed(t *testing.T) {
	_, sink := causalFig11(t, 1, 800)
	traces := sink.CausalTraces()
	if len(traces) == 0 {
		t.Fatal("no causal traces")
	}
	for i := range traces {
		if err := traces[i].Check(); err != nil {
			t.Fatal(err)
		}
	}
}
