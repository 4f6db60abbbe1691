package main

import (
	"fmt"
	"io"

	"mmt/internal/trace"
)

// This file renders mmt-series/v1 documents (from TraceSink.WriteSeriesJSON
// or `mmt-bench -fig 11 -series`): one sparkline per process over its
// retained window deltas, plus a summary table. Like every renderer here
// the output is a pure function of the input bytes.

// sparks are the eight-level block glyphs, lowest to highest.
var sparks = []rune("▁▂▃▄▅▆▇█")

// renderSeries prints each process's busy-cycles-per-window sparkline
// (retained samples oldest to newest, scaled to the process's own peak)
// and a summary table. Idle windows produce no sample, so a glyph is one
// *active* window; the window labels under the summary give the span.
func renderSeries(w io.Writer, v *trace.SeriesView) {
	fmt.Fprintf(w, "time series: %d procs, window %d cycles, ring %d samples\n",
		len(v.Procs), v.WindowCycles, v.MaxSamples)
	rows := [][]string{{"proc", "windows", "evicted", "span", "ops", "cycles", "activity"}}
	for _, p := range v.Procs {
		vals := make([]float64, len(p.Samples))
		peak := 0.0
		var ops uint64
		for i, s := range p.Samples {
			for _, c := range s.Cycles {
				vals[i] += float64(c)
			}
			for _, o := range s.Ops {
				ops += o.Count
			}
			if vals[i] > peak {
				peak = vals[i]
			}
		}
		var total float64
		for _, c := range p.Totals.Cycles {
			total += float64(c)
		}
		span := "-"
		if n := len(p.Samples); n > 0 {
			span = fmt.Sprintf("%d..%d", p.Samples[0].Window, p.Samples[n-1].Window)
		}
		rows = append(rows, []string{
			p.Proc,
			fmt.Sprintf("%d", p.EvictedWindows+uint64(len(p.Samples))),
			fmt.Sprintf("%d", p.EvictedWindows),
			span,
			fmt.Sprintf("%d", ops),
			cycWide(total),
			sparkline(vals, peak),
		})
	}
	table(w, rows)
}

// cycWide formats a cycle total without falling into %g's scientific
// notation (series totals routinely pass 1e6 with sub-cycle fractions).
func cycWide(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}

// sparkline maps each value to one of eight glyphs scaled against peak.
// A zero-cycle sample (ops charged no time, e.g. pure counter traffic)
// still gets the lowest glyph: the window was active.
func sparkline(vals []float64, peak float64) string {
	if len(vals) == 0 {
		return ""
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		idx := 0
		if peak > 0 {
			idx = int(v / peak * float64(len(sparks)-1))
			if idx >= len(sparks) {
				idx = len(sparks) - 1
			}
		}
		out[i] = sparks[idx]
	}
	return string(out)
}
