// Benchmarks of the paper's evaluation: one sub-benchmark per experiment
// of bench.Experiments, each running it once per iteration (wall time per
// op mostly reflects host speed; the simulated results, and the paper's
// claims checked against them, are printed by `go run ./cmd/mmt-bench`).
//
//	go test -bench=. -benchmem
package mmt_test

import (
	"testing"

	"mmt"
	"mmt/internal/bench"
)

// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation, from Table I to the extensions.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Output(0); err != nil {
					b.Fatal(err)
				}
			}
		})
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
