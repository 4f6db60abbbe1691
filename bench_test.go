// Benchmarks regenerating the paper's evaluation, one per table and
// figure. Each iteration runs the full experiment on the simulated
// testbeds and reports the headline quantity as a custom metric (wall
// time per op mostly reflects host speed; the simulated results are the
// deliverable and are printed by `go run ./cmd/mmt-bench`).
//
//	go test -bench=. -benchmem
package mmt_test

import (
	"testing"

	"mmt"
	"mmt/internal/bench"
)

// BenchmarkTable4Gem5 regenerates the Gem5 half of Table IV and reports
// the 2M-transfer speedup of MMT delegation over the secure channel
// (paper: 169x).
func BenchmarkTable4Gem5(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4Gem5()
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[0].Speedup
	}
	b.ReportMetric(speedup, "speedup@2M")
}

// BenchmarkTable4Intel regenerates the Intel half of Table IV (paper:
// ~13x with AES-NI). Heavy: three functional transfers up to 128 MB.
func BenchmarkTable4Intel(b *testing.B) {
	if testing.Short() {
		b.Skip("128MB functional transfers in -short mode")
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4Intel()
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[0].Speedup
	}
	b.ReportMetric(speedup, "speedup@32M")
}

// BenchmarkFig10a regenerates the throughput comparison (paper: MMT
// 9.68 GB/s vs AES-GCM 2.2 GB/s).
func BenchmarkFig10a(b *testing.B) {
	var mmtGBps float64
	for i := 0; i < b.N; i++ {
		rows := bench.Fig10a()
		mmtGBps = rows[len(rows)-1].MMTGBps
	}
	b.ReportMetric(mmtGBps, "MMT-GB/s")
}

// BenchmarkFig10b regenerates the latency sensitivity sweep (paper:
// speedup falls from 169x to 4.5x at 10 ms).
func BenchmarkFig10b(b *testing.B) {
	var at10ms float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig10b()
		if err != nil {
			b.Fatal(err)
		}
		at10ms = rows[len(rows)-1].Speedup
	}
	b.ReportMetric(at10ms, "speedup@10ms")
}

// BenchmarkFig11 regenerates the SPEC-like overhead study (paper
// averages: 1.07 / 1.12 / 1.21 for 2/3/4 levels).
func BenchmarkFig11(b *testing.B) {
	var avg3 float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig11(100_000)
		if err != nil {
			b.Fatal(err)
		}
		avg3 = res.Average[3]
	}
	b.ReportMetric(avg3, "avg-overhead-3lvl")
}

// BenchmarkFig12 regenerates the WordCount transfer-size sweep (paper: up
// to 10x, crossover below 8K).
func BenchmarkFig12(b *testing.B) {
	var maxSpeedup float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		maxSpeedup = rows[len(rows)-1].Speedup
	}
	b.ReportMetric(maxSpeedup, "speedup@max")
}

// BenchmarkFig13a regenerates the comm-share sweep (paper: MMT within
// ~1.5% of baseline at comm-10%).
func BenchmarkFig13a(b *testing.B) {
	var mmtAt10 float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig13a()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.CommPercent == 10 {
				mmtAt10 = r.MMT
			}
		}
	}
	b.ReportMetric(mmtAt10, "MMT-normalized@10%")
}

// BenchmarkFig13b regenerates the MnRn scalability sweep.
func BenchmarkFig13b(b *testing.B) {
	if testing.Short() {
		b.Skip("cluster sweep in -short mode")
	}
	var scaling float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig13b()
		if err != nil {
			b.Fatal(err)
		}
		scaling = rows[len(rows)-1].SpeedupVsM1MMT
	}
	b.ReportMetric(scaling, "MMT-scaling@M8R8")
}

// BenchmarkFig14 regenerates the PageRank/GAS comparison (paper: MMT
// remote-transfer 5% of cycles, +35% end to end over the secure channel).
func BenchmarkFig14(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Fig14(bench.DefaultFig14Config())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Mode.String() == "mmt" {
				share = r.RemoteTransferShare
			}
		}
	}
	b.ReportMetric(100*share, "remote-transfer-%")
}

// BenchmarkAblations runs the beyond-the-paper design-choice sweeps.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RenderAblations(50_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelegation2M measures the full functional path of one 2 MB
// ownership-transfer delegation — acquire, seal, wire, verify, install —
// in host time (the simulated cost is Table IV's 437k cycles).
func BenchmarkDelegation2M(b *testing.B) {
	cluster, err := mmt.New(mmt.WithRegions(4))
	if err != nil {
		b.Fatal(err)
	}
	alice, err := cluster.AddMachine("alice")
	if err != nil {
		b.Fatal(err)
	}
	bob, err := cluster.AddMachine("bob")
	if err != nil {
		b.Fatal(err)
	}
	sender := alice.Spawn("s", nil)
	receiver := bob.Spawn("r", nil)
	link, err := cluster.Connect(sender, receiver)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	b.SetBytes(2 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := link.NewBuffer(sender)
		if err != nil {
			b.Fatal(err)
		}
		if err := buf.Write(0, payload); err != nil {
			b.Fatal(err)
		}
		if err := link.Delegate(buf, mmt.OwnershipTransfer); err != nil {
			b.Fatal(err)
		}
		got, err := link.Receive(receiver)
		if err != nil {
			b.Fatal(err)
		}
		if err := got.Free(); err != nil {
			b.Fatal(err)
		}
	}
}
