package bench

import (
	"fmt"

	"mmt/internal/par"
	"mmt/internal/sim"
	"mmt/internal/tree"
)

// Fig10aRow is one block size of Figure 10(a): achievable throughput of
// AES-128-GCM (AES-NI), raw RDMA, and MMT closure delegation on the Intel
// testbed, in GB/s.
type Fig10aRow struct {
	BlockSize  int
	AESGCMGBps float64
	RDMAGBps   float64
	MMTGBps    float64
}

// Fig10a reproduces Figure 10(a). The paper's headline points: AES-GCM
// plateaus at ~2.2 GB/s, the 100 Gbps NIC delivers ~11 GB/s, and MMT
// delegation reaches 9.68 GB/s (the NIC rate divided by the closure's
// metadata overhead).
func Fig10a() []Fig10aRow {
	prof := sim.IntelProfile()
	geo := tree.ForLevels(3)
	// Goodput of delegation: data bytes over the cycles to push
	// data+metadata through the NIC plus the fixed protocol cost.
	delegGoodput := func(n int) float64 {
		closures := (n + geo.DataSize() - 1) / geo.DataSize()
		wire := n + closures*(geo.MetaSize()+64) // tree nodes + MACs + sealed root
		cy := prof.RemoteWriteCost(wire) + sim.Cycles(closures)*prof.DelegationFixed
		return float64(n) / float64(prof.ToTime(cy))
	}
	var rows []Fig10aRow
	for n := 1 << 10; n <= 32<<20; n <<= 2 {
		rows = append(rows, Fig10aRow{
			BlockSize:  n,
			AESGCMGBps: float64(n) / float64(prof.ToTime(prof.EncryptCost(n))) / 1e9,
			RDMAGBps:   float64(n) / float64(prof.ToTime(prof.RemoteWriteCost(n))) / 1e9,
			MMTGBps:    delegGoodput(n) / 1e9,
		})
	}
	return rows
}

// RenderFig10a prints the throughput series.
func RenderFig10a(rows []Fig10aRow) string {
	header := []string{"Block", "AES-GCM GB/s", "RDMA GB/s", "MMT GB/s"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmtSize(r.BlockSize),
			fmt.Sprintf("%.2f", r.AESGCMGBps),
			fmt.Sprintf("%.2f", r.RDMAGBps),
			fmt.Sprintf("%.2f", r.MMTGBps),
		})
	}
	return renderTable("Figure 10a: max throughput (paper: AES-GCM ~2.2, RDMA ~11, MMT 9.68 GB/s)", header, out)
}

// Fig10bRow is one network-latency point of Figure 10(b): end-to-end time
// to move 2 MB via the CPU-only secure channel versus MMT delegation on
// the Gem5 testbed, and the resulting speedup.
type Fig10bRow struct {
	NetLatency    sim.Time
	SecureChannel sim.Time
	MMT           sim.Time
	Speedup       float64
}

// Fig10b reproduces Figure 10(b) by re-running the 2 MB transfer of Table
// IV at increasing pci-connector delays. The paper: 169x at zero latency
// falling to ~4.5x at 10 ms.
func Fig10b() ([]Fig10bRow, error) {
	latencies := []sim.Time{0, 1e-6, 10e-6, 100e-6, 1e-3, 10e-3}
	// Each latency point runs an independent transfer simulation with its
	// own profile and machines; fan the points across Workers() goroutines.
	return par.Map(Workers(), latencies, func(_ int, lat sim.Time) (Fig10bRow, error) {
		prof := sim.Gem5Profile()
		prof.NetLatency = lat
		row, err := table4Measure(prof, 2<<20, nil)
		if err != nil {
			return Fig10bRow{}, err
		}
		// End-to-end = processing cycles + one-way propagation (both
		// schemes send one logical message).
		sc := prof.ToTime(row.SecureChannel) + lat
		mmt := prof.ToTime(row.MMT) + lat
		return Fig10bRow{
			NetLatency:    lat,
			SecureChannel: sc,
			MMT:           mmt,
			Speedup:       float64(sc) / float64(mmt),
		}, nil
	})
}

// RenderFig10b prints the latency series.
func RenderFig10b(rows []Fig10bRow) string {
	header := []string{"NetLatency", "SecureChannel", "MMT", "Speedup"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.NetLatency.String(), r.SecureChannel.String(), r.MMT.String(),
			fmt.Sprintf("%.1fx", r.Speedup),
		})
	}
	return renderTable("Figure 10b: 2M end-to-end vs network latency (paper: 169x -> 4.5x at 10ms)", header, out)
}

// fig10aClaims checks the plateaus at the largest block.
func fig10aClaims(rows []Fig10aRow) []Claim {
	last := rows[len(rows)-1]
	return []Claim{
		{Name: "AES-GCM plateau within 1.5-3 GB/s", Paper: "~2.2 GB/s", Holds: within(last.AESGCMGBps, 1.5, 3)},
		{Name: "RDMA plateau within 9-13 GB/s", Paper: "~11 GB/s", Holds: within(last.RDMAGBps, 9, 13)},
		{Name: "MMT plateau within 8-11 GB/s", Paper: "9.68 GB/s", Holds: within(last.MMTGBps, 8, 11)},
		{Name: "MMT plateau below RDMA", Paper: "the NIC rate less the metadata", Holds: last.MMTGBps < last.RDMAGBps},
		{Name: "MMT plateau >= 3x AES-GCM", Paper: "an order of magnitude over crypto", Holds: last.MMTGBps/last.AESGCMGBps >= 3},
		{Name: "AES-GCM grows over six or more block sizes", Paper: "setup amortised with block size",
			Holds: len(rows) >= 6 && rows[0].AESGCMGBps < last.AESGCMGBps},
	}
}

// fig10bClaims checks the latency sweep's ends and its slope.
func fig10bClaims(rows []Fig10bRow) []Claim {
	first, last := rows[0], rows[len(rows)-1]
	falling := true
	for i := 1; i < len(rows); i++ {
		falling = falling && rows[i].Speedup <= rows[i-1].Speedup
	}
	return []Claim{
		{Name: "Speedup at 0s within 100-260x", Paper: "169x", Holds: first.NetLatency == 0 && within(first.Speedup, 100, 260)},
		{Name: "Speedup at 10ms within 2-8x", Paper: "4.5x", Holds: last.NetLatency == 10e-3 && within(last.Speedup, 2, 8)},
		{Name: "Speedup never grows with latency", Paper: "169x falling to 4.5x", Holds: falling},
	}
}
