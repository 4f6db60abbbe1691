package mapreduce

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
	"mmt/internal/workload"
)

var smallGeo = tree.Geometry{Arities: []int{4, 4, 8}} // 8 KB regions

func testConfig(mode Mode) Config {
	return Config{
		Mappers:           2,
		Reducers:          2,
		Mode:              mode,
		Profile:           sim.Gem5Profile(),
		Geometry:          smallGeo,
		PoolRegions:       48,
		MapCyclesPerByte:  10,
		ReduceCyclesPerKV: 50,
	}
}

func TestEncodeDecodeKVsRoundTrip(t *testing.T) {
	kvs := []KV{{"alpha", 1}, {"beta", -7}, {"", 42}, {"long key with spaces", 1 << 40}}
	got, err := decodeKVs(encodeKVs(kvs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(kvs) {
		t.Fatalf("got %d pairs", len(got))
	}
	for i := range kvs {
		if got[i] != kvs[i] {
			t.Fatalf("pair %d: %+v != %+v", i, got[i], kvs[i])
		}
	}
	if _, err := decodeKVs(encodeKVs(nil)); err != nil {
		t.Fatalf("empty list: %v", err)
	}
}

func TestDecodeKVsRejectsGarbage(t *testing.T) {
	good := encodeKVs([]KV{{"k", 1}})
	cases := [][]byte{
		nil,
		{1, 2},
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0xFF),
	}
	for i, b := range cases {
		if _, err := decodeKVs(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	f := func(b []byte) bool { _, _ = decodeKVs(b); return true } // no panics
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitInputCoversEverything(t *testing.T) {
	input := []byte(strings.Repeat("alpha beta gamma ", 100))
	for _, m := range []int{1, 2, 3, 7} {
		chunks := splitInput(input, m)
		if len(chunks) != m {
			t.Fatalf("m=%d: %d chunks", m, len(chunks))
		}
		if !bytes.Equal(bytes.Join(chunks, nil), input) {
			t.Fatalf("m=%d: chunks do not reassemble input", m)
		}
	}
}

// reference runs WordCount sequentially for comparison.
func reference(input []byte) map[string]int64 {
	out := make(map[string]int64)
	for _, w := range strings.Fields(string(input)) {
		out[w]++
	}
	return out
}

func runWordCount(t *testing.T, mode Mode, input []byte) *Result {
	t.Helper()
	res, err := Run(testConfig(mode), input, WordCountMapper, WordCountReducer)
	if err != nil {
		t.Fatalf("%v wordcount: %v", mode, err)
	}
	return res
}

func TestWordCountCorrectAcrossModes(t *testing.T) {
	input := workload.Corpus(7, 20_000)
	want := reference(input)
	for _, mode := range []Mode{Baseline, SecureChannel, MMT} {
		res := runWordCount(t, mode, input)
		if len(res.Output) != len(want) {
			t.Fatalf("%v: %d keys, want %d", mode, len(res.Output), len(want))
		}
		for k, v := range want {
			if res.Output[k] != v {
				t.Fatalf("%v: count[%q] = %d, want %d", mode, k, res.Output[k], v)
			}
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%v: no simulated time elapsed", mode)
		}
		if res.ShuffleBytes <= 0 {
			t.Fatalf("%v: no shuffle traffic", mode)
		}
	}
}

func TestModesAgreeOnOutput(t *testing.T) {
	input := workload.Corpus(8, 10_000)
	base := runWordCount(t, Baseline, input)
	sec := runWordCount(t, SecureChannel, input)
	mmt := runWordCount(t, MMT, input)
	for k, v := range base.Output {
		if sec.Output[k] != v || mmt.Output[k] != v {
			t.Fatalf("outputs disagree on %q", k)
		}
	}
}

func TestSecureChannelSlowerThanBaselineAndMMTClose(t *testing.T) {
	// The Figure 13 shape: secure channel pays for crypto; MMT stays close
	// to the baseline.
	input := workload.Corpus(9, 200_000)
	base := runWordCount(t, Baseline, input)
	sec := runWordCount(t, SecureChannel, input)
	mmt := runWordCount(t, MMT, input)
	if sec.Elapsed <= base.Elapsed {
		t.Fatalf("secure channel (%v) not slower than baseline (%v)", sec.Elapsed, base.Elapsed)
	}
	secOver := float64(sec.Elapsed) / float64(base.Elapsed)
	mmtOver := float64(mmt.Elapsed) / float64(base.Elapsed)
	if mmtOver >= secOver {
		t.Fatalf("MMT overhead %.3f not below secure channel %.3f", mmtOver, secOver)
	}
}

func TestGrepJob(t *testing.T) {
	input := []byte("error: disk full\nok\nwarn: retry\nerror: disk full\nok")
	grep := func(chunk []byte, emit func(string, int64)) {
		for _, line := range strings.Split(string(chunk), "\n") {
			if strings.Contains(line, "error") {
				emit(line, 1)
			}
		}
	}
	res, err := Run(testConfig(MMT), input, grep, WordCountReducer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output["error: disk full"] != 2 {
		t.Fatalf("grep output: %+v", res.Output)
	}
}

func TestScalingWorkers(t *testing.T) {
	// MnRn scalability shape (Figure 13b): more workers must not break
	// correctness, and per-worker work shrinks.
	input := workload.Corpus(10, 60_000)
	want := reference(input)
	for _, n := range []int{1, 2, 4} {
		cfg := testConfig(MMT)
		cfg.Mappers, cfg.Reducers = n, n
		res, err := Run(cfg, input, WordCountMapper, WordCountReducer)
		if err != nil {
			t.Fatalf("M%dR%d: %v", n, n, err)
		}
		for k, v := range want {
			if res.Output[k] != v {
				t.Fatalf("M%dR%d: wrong count for %q", n, n, k)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig(MMT)
	bad.Mappers = 0
	if _, err := Run(bad, nil, WordCountMapper, WordCountReducer); err == nil {
		t.Error("zero mappers accepted")
	}
	bad = testConfig(MMT)
	bad.Profile = nil
	if _, err := Run(bad, nil, WordCountMapper, WordCountReducer); err == nil {
		t.Error("nil profile accepted")
	}
	bad = testConfig(MMT)
	bad.Geometry = tree.Geometry{}
	if _, err := Run(bad, nil, WordCountMapper, WordCountReducer); err == nil {
		t.Error("invalid geometry accepted in MMT mode")
	}
}

func TestModeString(t *testing.T) {
	if Baseline.String() != "baseline" || SecureChannel.String() != "secure-channel" || MMT.String() != "mmt" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should print")
	}
}

func TestCommCyclesTracked(t *testing.T) {
	input := workload.Corpus(11, 50_000)
	res := runWordCount(t, SecureChannel, input)
	if res.CommCycles == 0 {
		t.Fatal("no communication cycles recorded")
	}
	base := runWordCount(t, Baseline, input)
	if res.CommCycles <= base.CommCycles {
		t.Fatal("secure channel comm cycles not above baseline")
	}
}

func TestCombinerShrinksShuffleSameOutput(t *testing.T) {
	input := workload.Corpus(15, 100_000)
	plain := testConfig(MMT)
	combined := testConfig(MMT)
	combined.Combiner = WordCountReducer

	a, err := Run(plain, input, WordCountMapper, WordCountReducer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(combined, input, WordCountMapper, WordCountReducer)
	if err != nil {
		t.Fatal(err)
	}
	if b.ShuffleBytes >= a.ShuffleBytes/4 {
		t.Fatalf("combiner shrank shuffle only %d -> %d", a.ShuffleBytes, b.ShuffleBytes)
	}
	if len(a.Output) != len(b.Output) {
		t.Fatalf("outputs differ in size: %d vs %d", len(a.Output), len(b.Output))
	}
	for k, v := range a.Output {
		if b.Output[k] != v {
			t.Fatalf("combiner changed count for %q: %d vs %d", k, b.Output[k], v)
		}
	}
	if b.Elapsed >= a.Elapsed {
		t.Fatalf("combined run (%v) not faster than plain (%v) under MMT", b.Elapsed, a.Elapsed)
	}
}

func TestCombineHelper(t *testing.T) {
	in := []KV{{"a", 1}, {"b", 2}, {"a", 3}, {"c", 4}, {"b", 5}}
	out := combine(in, WordCountReducer)
	if len(out) != 3 {
		t.Fatalf("combine produced %d pairs", len(out))
	}
	want := []KV{{"a", 4}, {"b", 7}, {"c", 4}} // first-seen order
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, out[i], want[i])
		}
	}
	if got := combine(nil, WordCountReducer); len(got) != 0 {
		t.Fatal("combine(nil) not empty")
	}
}

// TestTracedPhaseSum: a traced job with a combiner books every cycle its
// machines' clocks advanced — a charge to exactly one phase, a receive's
// wait as a remote-read sample — so per job, phases plus waits equal the
// machines' final clocks; and a second run of the same job reproduces
// every clock and every phase total exactly.
func TestTracedPhaseSum(t *testing.T) {
	input := workload.Corpus(15, 20_000)
	run := func() (*Result, trace.Metrics) {
		cfg := testConfig(MMT)
		cfg.Combiner, cfg.NetLatency, cfg.Trace = WordCountReducer, 1e-6, trace.NewSink()
		res, err := Run(cfg, input, WordCountMapper, WordCountReducer)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.Trace.Snapshot()
	}
	res, metrics := run()
	var phases, waits, clocks sim.Cycles
	for _, p := range metrics.Procs {
		for _, c := range p.Cycles {
			phases += c
		}
		waits += p.Ops[trace.OpRemoteRead].Sum
	}
	for _, at := range slices.Concat(res.MapTime, res.ReduceTime) {
		clocks += sim.Cycles(float64(at) * sim.Gem5Profile().FreqHz)
	}
	if waits == 0 || !trace.SumsAgree(phases+waits, clocks) {
		t.Fatalf("phase cycles %v + wire waits %v = %v, machine clocks %v", phases, waits, phases+waits, clocks)
	}
	again, metricsAgain := run()
	if !slices.Equal(res.MapTime, again.MapTime) || !slices.Equal(res.ReduceTime, again.ReduceTime) || !reflect.DeepEqual(metrics, metricsAgain) {
		t.Fatal("a second run of the same job moved a clock or a phase total")
	}
}
