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

// Fig12Row is one point of Figure 12: end-to-end WordCount time when the
// shuffle runs over MMT closure delegation versus the software secure
// channel on the Gem5 testbed, by transferred (shuffle) size.
type Fig12Row struct {
	InputBytes   int
	ShuffleBytes int
	Secure       sim.Time
	MMT          sim.Time
	Speedup      float64
}

// Fig12 runs WordCount at increasing input sizes with a single
// mapper/reducer pair (the paper's per-link view) on the Gem5 profile with
// the default 2 MB MMT geometry. The paper's shape: up to ~10x when the
// transferred size exceeds one closure, crossover below 8K.
func Fig12() ([]Fig12Row, error) {
	sizes := []int{1 << 10, 4 << 10, 32 << 10, 256 << 10, 1 << 20, 4 << 20}
	// Every size point builds its own corpus, profile and cluster; the
	// points fan out across Workers() goroutines.
	return par.Map(Workers(), sizes, func(_ int, input int) (Fig12Row, error) {
		return fig12Point(input, nil)
	})
}

// fig12Point runs one Figure 12 point: WordCount over input bytes on one
// mapper/reducer pair, secure channel then MMT shuffle, both recording
// into sink when it is non-nil. The job's compute halves fan out across
// Workers() goroutines; the result is the same at any width.
func fig12Point(input int, sink *trace.Sink) (Fig12Row, error) {
	geo := tree.ForLevels(3)
	corpus := workload.Corpus(12, input)
	cfg := mapreduce.Config{
		Mappers: 1, Reducers: 1,
		Profile:  sim.Gem5Profile(),
		Geometry: geo,
		// WordCount expands text ~1.7x into key-value bytes; size the
		// pool for the expanded shuffle.
		PoolRegions:       2*input/geo.DataSize() + 4,
		MapCyclesPerByte:  8,
		ReduceCyclesPerKV: 40,
		Trace:             sink,
		Workers:           Workers(),
	}
	cfg.Mode = mapreduce.SecureChannel
	sec, err := mapreduce.Run(cfg, corpus, mapreduce.WordCountMapper, mapreduce.WordCountReducer)
	if err != nil {
		return Fig12Row{}, fmt.Errorf("fig12 secure %d: %w", input, err)
	}
	cfg.Mode = mapreduce.MMT
	mmt, err := mapreduce.Run(cfg, corpus, mapreduce.WordCountMapper, mapreduce.WordCountReducer)
	if err != nil {
		return Fig12Row{}, fmt.Errorf("fig12 mmt %d: %w", input, err)
	}
	return Fig12Row{
		InputBytes:   input,
		ShuffleBytes: mmt.ShuffleBytes,
		Secure:       sec.Elapsed,
		MMT:          mmt.Elapsed,
		Speedup:      float64(sec.Elapsed) / float64(mmt.Elapsed),
	}, nil
}

// RenderFig12 prints the series.
func RenderFig12(rows []Fig12Row) string {
	header := []string{"Input", "Shuffle", "SecureChannel", "MMT", "Speedup"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmtSize(r.InputBytes), fmtSize(r.ShuffleBytes),
			r.Secure.String(), r.MMT.String(),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	return renderTable("Figure 12: WordCount end-to-end by transferred size (paper: up to 10x; secure channel wins <8K)", header, out)
}
