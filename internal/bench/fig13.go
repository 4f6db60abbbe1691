package bench

import (
	"fmt"

	"mmt/internal/mapreduce"
	"mmt/internal/par"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
	"mmt/internal/workload"
)

// Fig13aRow is one workload of Figure 13(a): MapReduce end-to-end
// performance, normalized to the non-secure baseline, when communication
// accounts for CommPercent of the baseline execution.
type Fig13aRow struct {
	CommPercent int
	// Normalized performance (baseline = 1.0; higher is better).
	Baseline, MMT, SecureChannel float64
	// MMTImprovement is 1 - mmtTime/secureTime, the paper's 12%~58% metric.
	MMTImprovement float64
}

// fig13Input is the WordCount corpus used for the comm-ratio sweep.
const fig13Input = 2 << 20

// Fig13a reproduces Figure 13(a) on the Intel profile: for each comm-n%
// point the map/reduce compute costs are scaled so that communication is
// n% of baseline execution, then all three shuffle modes run the same job.
func Fig13a() ([]Fig13aRow, error) {
	geo := tree.ForLevels(3)
	corpus := workload.Corpus(13, fig13Input)
	base := mapreduce.Config{
		Mappers: 2, Reducers: 2,
		Mode:        mapreduce.Baseline,
		Profile:     sim.IntelProfile(),
		Geometry:    geo,
		PoolRegions: 8,
	}
	// First find the baseline communication time with zero compute.
	probe := base
	probe.MapCyclesPerByte, probe.ReduceCyclesPerKV = 0, 0
	res, err := mapreduce.Run(probe, corpus, mapreduce.WordCountMapper, mapreduce.WordCountReducer)
	if err != nil {
		return nil, err
	}
	commTime := float64(res.Elapsed)

	// The comm-n% points are independent once commTime is known; each one
	// copies the config (including the profile) and runs its three modes.
	return par.Map(Workers(), []int{5, 10, 25, 50}, func(_ int, pct int) (Fig13aRow, error) {
		computeTime := commTime * float64(100-pct) / float64(pct)
		// Split the compute budget between map (per input byte) and reduce
		// (per KV pair); WordCount emits roughly one pair per 6 bytes.
		cfg := base
		prof := *base.Profile
		cfg.Profile = &prof
		cyclesTotal := computeTime * cfg.Profile.FreqHz
		cfg.MapCyclesPerByte = 0.6 * cyclesTotal / float64(len(corpus))
		cfg.ReduceCyclesPerKV = 0.4 * cyclesTotal / (float64(len(corpus)) / 6)

		var elapsed [3]float64
		for i, mode := range []mapreduce.Mode{mapreduce.Baseline, mapreduce.MMT, mapreduce.SecureChannel} {
			cfg.Mode = mode
			r, err := mapreduce.Run(cfg, corpus, mapreduce.WordCountMapper, mapreduce.WordCountReducer)
			if err != nil {
				return Fig13aRow{}, fmt.Errorf("fig13a comm-%d%% %v: %w", pct, mode, err)
			}
			elapsed[i] = float64(r.Elapsed)
		}
		return Fig13aRow{
			CommPercent:    pct,
			Baseline:       1.0,
			MMT:            elapsed[0] / elapsed[1],
			SecureChannel:  elapsed[0] / elapsed[2],
			MMTImprovement: 1 - elapsed[1]/elapsed[2],
		}, nil
	})
}

// RenderFig13a prints the normalized-performance series.
func RenderFig13a(rows []Fig13aRow) string {
	header := []string{"Workload", "Baseline", "MMT", "SecureChannel", "MMT vs SC"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("comm-%d%%", r.CommPercent),
			fmt.Sprintf("%.3f", r.Baseline),
			fmt.Sprintf("%.3f", r.MMT),
			fmt.Sprintf("%.3f", r.SecureChannel),
			fmt.Sprintf("+%.0f%%", 100*r.MMTImprovement),
		})
	}
	return renderTable("Figure 13a: normalized MapReduce performance by comm share (paper: MMT ~= baseline, 12-58% over secure channel)", header, out)
}

// Fig13bRow is one cluster size of Figure 13(b): MnRn — n mappers and n
// reducers on 2n machines.
type Fig13bRow struct {
	N                   int
	Baseline, MMT       sim.Time
	SpeedupVsM1Baseline float64
	SpeedupVsM1MMT      float64
}

// Fig13b reproduces the scalability experiment: a fixed input processed by
// growing clusters. MMT delegation is message passing, so it must scale
// like the baseline ("MMT delegation will not break the scalability").
func Fig13b() ([]Fig13bRow, error) {
	// The cluster sizes run independently (every fig13bRun builds a
	// fresh profile and cluster); the M1R1 reference times needed for
	// the speedup columns are filled in serially afterwards.
	type pair struct{ b, m sim.Time }
	times, err := par.Map(Workers(), []int{1, 2, 4, 8}, func(_ int, n int) (pair, error) {
		b, err := fig13bRun(mapreduce.Baseline, n, nil)
		if err != nil {
			return pair{}, fmt.Errorf("fig13b baseline n=%d: %w", n, err)
		}
		m, err := fig13bRun(mapreduce.MMT, n, nil)
		if err != nil {
			return pair{}, fmt.Errorf("fig13b mmt n=%d: %w", n, err)
		}
		return pair{b, m}, nil
	})
	if err != nil {
		return nil, err
	}
	base1, mmt1 := times[0].b, times[0].m
	var rows []Fig13bRow
	for i, n := range []int{1, 2, 4, 8} {
		rows = append(rows, Fig13bRow{
			N: n, Baseline: times[i].b, MMT: times[i].m,
			SpeedupVsM1Baseline: float64(base1) / float64(times[i].b),
			SpeedupVsM1MMT:      float64(mmt1) / float64(times[i].m),
		})
	}
	return rows, nil
}

// fig13bRun runs one Figure 13b cell: the fixed WordCount corpus on n
// mappers and n reducers in one shuffle mode, recording into sink when
// it is non-nil. The job's compute halves fan out across Workers()
// goroutines; the result is the same at any width.
func fig13bRun(mode mapreduce.Mode, n int, sink *trace.Sink) (sim.Time, error) {
	geo := tree.ForLevels(3)
	corpus := workload.Corpus(14, 2<<20)
	cfg := mapreduce.Config{
		Mappers: n, Reducers: n,
		Mode:     mode,
		Profile:  sim.IntelProfile(),
		Geometry: geo,
		// Pool sizing: the largest (Zipf-skewed) partition is a large
		// fraction of one mapper's output; size per-link pools for it.
		PoolRegions:       2*len(corpus)/(n*geo.DataSize()) + 3,
		MapCyclesPerByte:  60,
		ReduceCyclesPerKV: 300,
		Trace:             sink,
		Workers:           Workers(),
	}
	r, err := mapreduce.Run(cfg, corpus, mapreduce.WordCountMapper, mapreduce.WordCountReducer)
	if err != nil {
		return 0, err
	}
	return r.Elapsed, nil
}

// RenderFig13b prints the scalability series.
func RenderFig13b(rows []Fig13bRow) string {
	header := []string{"Cluster", "Baseline", "MMT", "Baseline scaling", "MMT scaling"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("M%dR%d", r.N, r.N),
			r.Baseline.String(), r.MMT.String(),
			fmt.Sprintf("%.2fx", r.SpeedupVsM1Baseline),
			fmt.Sprintf("%.2fx", r.SpeedupVsM1MMT),
		})
	}
	return renderTable("Figure 13b: MnRn scalability (paper: MMT scales like the baseline)", header, out)
}
