package bench

import (
	"fmt"

	"mmt/internal/channel"
	"mmt/internal/crypt"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/tree"
)

// CounterWidthRow is one local-counter width of the Morphable-style
// ablation: narrower locals save meta-zone bytes but overflow sooner,
// forcing leaf-group re-encryptions.
type CounterWidthRow struct {
	LocalBits      uint
	MetaFraction   float64 // serialized metadata / data (structural)
	Overflows      uint64  // overflow events during the write storm
	Reencryptions  uint64  // sibling lines re-encrypted
	CyclesPerWrite float64
}

// CounterWidthAblation hammers a small set of hot lines with writes — the
// worst case for counter overflow — across local-counter widths. The
// paper's 16-bit split (§V-A2) never overflows at this scale; the sweep
// shows what narrower counters would cost, the trade-off Morphable
// counters (cited as [46]) navigate.
func CounterWidthAblation(writes int) ([]CounterWidthRow, error) {
	if writes <= 0 {
		writes = 20_000
	}
	var rows []CounterWidthRow
	for _, bits := range []uint{4, 6, 8, 10, 12, 16} {
		geo := tree.Geometry{Arities: []int{16, 32, 64}, LocalBits: bits}
		tb, err := newTestbed(sim.Gem5Profile(), geo, 2)
		if err != nil {
			return nil, err
		}
		ctl := tb.sender.Controller()
		if _, err := tb.sender.Acquire(0, crypt.KeyFromBytes([]byte("cw")), 0); err != nil {
			return nil, err
		}
		ctl.ResetStats()
		line := make([]byte, 64)
		for i := 0; i < writes; i++ {
			line[0] = byte(i)
			// Hot set of 8 lines in one leaf group: maximal counter churn.
			if err := ctl.Write(0, i%8, line); err != nil {
				return nil, err
			}
		}
		st := ctl.Stats()
		overflows := uint64(0)
		if st.ReencryptedLines > 0 {
			// Each leaf overflow re-encrypts the other 63 lines of its group.
			overflows = st.ReencryptedLines / uint64(geo.Arities[len(geo.Arities)-1]-1)
		}
		rows = append(rows, CounterWidthRow{
			LocalBits:      bits,
			MetaFraction:   float64(geo.MetaSize()) / float64(geo.DataSize()),
			Overflows:      overflows,
			Reencryptions:  st.ReencryptedLines,
			CyclesPerWrite: float64(st.Cycles) / float64(writes),
		})
	}
	return rows, nil
}

// LossRow is one packet-loss rate of the reliability experiment: effective
// goodput of reliable MMT delegation on a lossy fabric (§VII's RDMA-RC
// analogy, exercised).
type LossRow struct {
	LossPercent int
	Delivered   int
	Retries     int
	GoodputGBps float64 // payload bytes / simulated transfer time
}

// LossSweep sends a stream of closures through a fabric that drops a
// fraction of them and measures delivered goodput including retransmission
// cost. Timing is simulated; the retry policy is channel.Reliable's.
func LossSweep(messages int) ([]LossRow, error) {
	if messages <= 0 {
		messages = 30
	}
	geo := tree.Geometry{Arities: []int{4, 8, 16}} // 32K closures keep it fast
	payloadBytes := geo.DataSize() - 64
	var rows []LossRow
	for _, loss := range []int{0, 5, 10, 20} {
		tb, err := newTestbed(sim.Gem5Profile(), geo, 8)
		if err != nil {
			return nil, err
		}
		// Drop every (100/loss)-th closure deterministically.
		if loss > 0 {
			tb.net.SetInterposer(&netsim.Dropper{Kind: netsim.KindClosure, Every: 100 / loss})
		}
		rel := channel.NewReliable(tb.deleg)
		rel.MaxRetries = 10
		delivered := 0
		pump := func() {
			for {
				r, err := tb.delegR.Recv()
				if err != nil {
					return
				}
				if _, err := r.Payload(); err != nil {
					return
				}
				if err := r.Release(); err != nil {
					return
				}
				delivered++
			}
		}
		start := tb.epS.Clock().Now()
		p := payload(payloadBytes)
		for i := 0; i < messages; i++ {
			if err := rel.SendReliably(p, pump); err != nil {
				return nil, fmt.Errorf("loss %d%%: %w", loss, err)
			}
		}
		elapsed := tb.epS.Clock().Now() - start
		rows = append(rows, LossRow{
			LossPercent: loss,
			Delivered:   delivered,
			Retries:     rel.Retries,
			GoodputGBps: float64(messages*payloadBytes) / float64(elapsed) / 1e9,
		})
	}
	return rows, nil
}

// RenderExtendedAblations runs and prints the counter-width and loss
// sweeps.
func RenderExtendedAblations() (string, error) {
	cw, err := CounterWidthAblation(0)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, r := range cw {
		rows = append(rows, []string{
			fmt.Sprintf("%d bits", r.LocalBits),
			fmt.Sprintf("%.1f%%", 100*r.MetaFraction),
			fmt.Sprintf("%d", r.Overflows),
			fmt.Sprintf("%d", r.Reencryptions),
			fmt.Sprintf("%.0f", r.CyclesPerWrite),
		})
	}
	out := renderTable("Ablation: local-counter width under a hot-line write storm",
		[]string{"Local bits", "Meta overhead", "Overflows", "Re-encrypted lines", "Cycles/write"}, rows)
	out += "\n"

	ls, err := LossSweep(0)
	if err != nil {
		return "", err
	}
	rows = nil
	for _, r := range ls {
		rows = append(rows, []string{
			fmt.Sprintf("%d%%", r.LossPercent),
			fmt.Sprintf("%d", r.Delivered),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%.2f", r.GoodputGBps),
		})
	}
	out += renderTable("Extension: reliable delegation goodput under packet loss (§VII)",
		[]string{"Loss", "Delivered", "Retries", "Goodput GB/s"}, rows)
	out += "\n"

	rt, err := RootTableSweep(0)
	if err != nil {
		return "", err
	}
	rows = nil
	for _, r := range rt {
		rows = append(rows, []string{
			fmtSize(r.RootTableBytes),
			fmt.Sprintf("%d", r.ResidentRoots),
			fmt.Sprintf("%.1f", r.MountsPerKAcc),
			fmt.Sprintf("%.3fx", r.Overhead),
		})
	}
	out += renderTable("Extension: Penglai-style root mounting under SoC pressure (mcf-like, 512 live MMTs)",
		[]string{"Root table", "Resident roots", "Mounts/kacc", "Overhead"}, rows)
	return out, nil
}

// RootTableRow is one SoC root-table size of the Penglai-style mounting
// extension: when live MMTs outnumber resident roots, accesses pay a
// root mount, which is how the paper's §VII scalability story (512 GB of
// secure memory behind a small SoC table) trades space for time.
type RootTableRow struct {
	RootTableBytes int
	ResidentRoots  int
	MountsPerKAcc  float64 // root mounts per 1000 accesses
	Overhead       float64
}

// RootTableSweep runs the mcf-like trace (3-level, 512 live MMTs over a
// 1 GB footprint) against shrinking root tables.
func RootTableSweep(accesses int) ([]RootTableRow, error) {
	if accesses <= 0 {
		accesses = 100_000
	}
	cfg, err := specTrace("mcf")
	if err != nil {
		return nil, err
	}
	geo := tree.ForLevels(3)
	var rows []RootTableRow
	for _, entries := range []int{1024, 512, 256, 128, 64} {
		prof := sim.Gem5Profile()
		prof.RootTableSoC = entries * 8
		over, st, err := traceRun(prof, cfg, geo, accesses, nil, "")
		if err != nil {
			return nil, err
		}
		rows = append(rows, RootTableRow{
			RootTableBytes: entries * 8,
			ResidentRoots:  entries,
			MountsPerKAcc:  1000 * float64(st.RootMounts) / float64(accesses),
			Overhead:       over,
		})
	}
	return rows, nil
}
