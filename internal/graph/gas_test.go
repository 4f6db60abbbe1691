package graph

import (
	"math"
	"strings"
	"testing"

	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
	"mmt/internal/workload"
)

var smallGeo = tree.Geometry{Arities: []int{4, 4, 8}} // 8 KB regions

func testConfig(mode Mode, machines int) Config {
	return Config{
		Machines:             machines,
		Mode:                 mode,
		Profile:              sim.Gem5Profile(),
		Geometry:             smallGeo,
		PoolRegions:          16,
		GatherCyclesPerMsg:   30,
		ApplyCyclesPerVertex: 20,
		ScatterCyclesPerEdge: 15,
		Iterations:           3,
	}
}

// referencePageRank computes the same damped PageRank sequentially.
func referencePageRank(g *workload.Graph, iters int, damping float64) []float64 {
	outDeg := make([]int, g.N)
	for _, e := range g.Edges {
		outDeg[e[0]]++
	}
	ranks := make([]float64, g.N)
	for v := range ranks {
		ranks[v] = 1.0 / float64(g.N)
	}
	incoming := make([]float64, g.N)
	for i := 0; i < iters; i++ {
		for v := range incoming {
			incoming[v] = 0
		}
		for _, e := range g.Edges {
			incoming[e[1]] += ranks[e[0]] / float64(outDeg[e[0]])
		}
		for v := range ranks {
			ranks[v] = (1-damping)/float64(g.N) + damping*incoming[v]
		}
	}
	return ranks
}

func TestPageRankMatchesReference(t *testing.T) {
	g := workload.RandomGraph(5, 500, 4)
	want := referencePageRank(g, 3, 0.85)
	for _, mode := range []Mode{NonSecure, SecureChannel, MMT} {
		res, err := PageRank(testConfig(mode, 2), g)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for v := range want {
			if math.Abs(res.Ranks[v]-want[v]) > 1e-12 {
				t.Fatalf("%v: rank[%d] = %g, want %g", mode, v, res.Ranks[v], want[v])
			}
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%v: no time elapsed", mode)
		}
		if res.CrossEdges == 0 {
			t.Fatalf("%v: no cross edges — test is vacuous", mode)
		}
	}
}

func TestPageRankSingleMachineNoRemote(t *testing.T) {
	g := workload.RandomGraph(6, 200, 4)
	res, err := PageRank(testConfig(NonSecure, 1), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossEdges != 0 {
		t.Fatal("single machine has cross edges")
	}
	if res.Breakdown.RemoteTransfer != 0 {
		t.Fatal("single machine charged remote-transfer cycles")
	}
}

func TestPageRankThreeMachines(t *testing.T) {
	g := workload.RandomGraph(7, 300, 4)
	want := referencePageRank(g, 3, 0.85)
	res, err := PageRank(testConfig(MMT, 3), g)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Abs(res.Ranks[v]-want[v]) > 1e-12 {
			t.Fatalf("rank[%d] diverges on 3 machines", v)
		}
	}
}

func TestPhaseBreakdownShape(t *testing.T) {
	// Figure 14b: the secure channel spends far more of its cycles in
	// remote-transfer than MMT delegation does.
	g := workload.RandomGraph(8, 2000, 6)
	sec, err := PageRank(testConfig(SecureChannel, 2), g)
	if err != nil {
		t.Fatal(err)
	}
	mmt, err := PageRank(testConfig(MMT, 2), g)
	if err != nil {
		t.Fatal(err)
	}
	secFrac := float64(sec.Breakdown.RemoteTransfer) / float64(sec.Breakdown.Total())
	mmtFrac := float64(mmt.Breakdown.RemoteTransfer) / float64(mmt.Breakdown.Total())
	if secFrac <= mmtFrac {
		t.Fatalf("remote-transfer fraction: secure %.3f <= mmt %.3f", secFrac, mmtFrac)
	}
	if sec.Elapsed <= mmt.Elapsed {
		t.Fatalf("secure channel (%v) not slower than MMT (%v)", sec.Elapsed, mmt.Elapsed)
	}
}

func TestRanksSumToOne(t *testing.T) {
	g := workload.RandomGraph(9, 400, 5)
	res, err := PageRank(testConfig(MMT, 2), g)
	if err != nil {
		t.Fatal(err)
	}
	// With damping, total rank = (1-d) + d * (mass kept by non-dangling
	// vertices); for a graph where every vertex has out-edges it stays 1.
	sum := 0.0
	for _, r := range res.Ranks {
		sum += r
	}
	if sum <= 0.5 || sum > 1.001 {
		t.Fatalf("rank sum %g implausible", sum)
	}
}

func TestConfigValidation(t *testing.T) {
	g := workload.RandomGraph(10, 50, 3)
	bad := testConfig(MMT, 0)
	if _, err := PageRank(bad, g); err == nil {
		t.Error("zero machines accepted")
	}
	bad = testConfig(MMT, 2)
	bad.Profile = nil
	if _, err := PageRank(bad, g); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestDecodeMsgsRejectsGarbage(t *testing.T) {
	if _, err := decodeMsgs(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := decodeMsgs([]byte{1, 0, 0, 0}); err == nil {
		t.Error("count without body accepted")
	}
	good := encodeMsgs([]vertexMsg{{Dst: 1, Mass: 0.5}})
	if _, err := decodeMsgs(good[:len(good)-1]); err == nil {
		t.Error("truncated accepted")
	}
	msgs, err := decodeMsgs(good)
	if err != nil || len(msgs) != 1 || msgs[0].Dst != 1 || msgs[0].Mass != 0.5 {
		t.Fatalf("round trip failed: %v %v", msgs, err)
	}
}

func TestModeString(t *testing.T) {
	if NonSecure.String() != "non-secure" || SecureChannel.String() != "secure-channel" || MMT.String() != "mmt" {
		t.Fatal("mode strings wrong")
	}
}

func TestEpsilonConvergence(t *testing.T) {
	g := workload.RandomGraph(11, 500, 5)
	cfg := testConfig(MMT, 2)
	cfg.Iterations = 100
	cfg.Epsilon = 1e-4
	res, err := PageRank(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 100 {
		t.Fatalf("did not converge early: %d iterations", res.Iterations)
	}
	if res.Iterations < 2 {
		t.Fatalf("converged implausibly fast: %d iterations", res.Iterations)
	}
	// Without epsilon, all iterations run.
	cfg.Epsilon = 0
	cfg.Iterations = 5
	res2, err := PageRank(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Iterations != 5 {
		t.Fatalf("cap ignored: %d iterations", res2.Iterations)
	}
	// The converged ranks are close to a long exact run.
	long := referencePageRank(g, res.Iterations, 0.85)
	for v := range long {
		if math.Abs(res.Ranks[v]-long[v]) > 1e-12 {
			t.Fatalf("converged ranks diverge from reference at v%d", v)
		}
	}
}

func TestTraceMirrorsComputePhases(t *testing.T) {
	g := workload.RandomGraph(5, 500, 4)
	sink := trace.NewSink()
	cfg := testConfig(MMT, 3)
	cfg.Trace = sink
	res, err := PageRank(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	procs := sink.Snapshot().Procs
	var mirrored sim.Cycles
	seen := 0
	for _, p := range procs {
		if !strings.HasPrefix(p.Proc, "gas-m") {
			continue
		}
		seen++
		mirrored += p.Cycles[trace.PhaseApp]
	}
	if seen != cfg.Machines {
		t.Fatalf("expected %d gas-m* probes, saw %d", cfg.Machines, seen)
	}
	// Every compute charge (gather, apply, scatter) is mirrored into the
	// sink as PhaseApp and remote transfer under the channel and engine
	// phases, so PhaseApp matches the compute slice of the breakdown
	// exactly.
	compute := res.Breakdown.Gather + res.Breakdown.Apply + res.Breakdown.Scatter
	if mirrored != compute {
		t.Fatalf("mirrored PhaseApp cycles %v != breakdown compute %v", mirrored, compute)
	}
	if mirrored == 0 {
		t.Fatal("mirrored PhaseApp cycles are zero; probes not charging")
	}
}

// TestPageRankTracedPhaseSum: a traced MMT run accounts for every cycle
// its machines' clocks advanced. A clock moves two ways — Probe.Charge,
// which books every charge to exactly one phase, and SyncTo at a
// receive, whose wait the endpoint records as a remote-read sample — so
// phases plus waits equal the clocks. PageRank used to leave its
// controllers, endpoints and channels unprobed, and the phase sum then
// held the compute cycles only.
func TestPageRankTracedPhaseSum(t *testing.T) {
	g := workload.RandomGraph(5, 500, 4)
	cfg := testConfig(MMT, 3)
	cfg.NetLatency = 1e-6 // so that receivers do wait
	cfg.Trace = trace.NewSink()
	res, err := PageRank(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	var phases, waits sim.Cycles
	for _, p := range cfg.Trace.Snapshot().Procs {
		for _, c := range p.Cycles {
			phases += c
		}
		waits += p.Ops[trace.OpRemoteRead].Sum
	}
	clocks := res.Breakdown.Total()
	if comm := res.Breakdown.RemoteTransfer; comm == 0 || phases <= clocks-comm {
		t.Fatalf("phase sum %v carries no communication cycles (compute %v, remote transfer %v)", phases, clocks-comm, comm)
	}
	if waits == 0 || !trace.SumsAgree(phases+waits, clocks) {
		t.Fatalf("phase cycles %v + wire waits %v = %v, machine clocks advanced %v", phases, waits, phases+waits, clocks)
	}
}
