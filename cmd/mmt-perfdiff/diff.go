package main

import (
	"fmt"
	"math"

	"mmt/internal/bench"
	"mmt/internal/trace"
)

// This file is the comparison core of mmt-perfdiff, kept free of CLI
// concerns so the regression/identity/mismatch behaviour is unit-tested
// directly against fixture files.

// ReportSchema identifies the machine-readable diff report format.
const ReportSchema = "mmt-perfdiff/v1"

// metric is one comparable number extracted from a sidecar. Every
// extracted metric is lower-is-better (cycles, seconds), so a relative
// increase beyond the threshold is a regression.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// perfDoc is the extracted, comparable view of one BENCH_*.json file.
type perfDoc struct {
	// Kind identifies the document shape: "fig<N>". Two documents compare
	// only when their kinds match.
	Kind    string
	Metrics []metric // extraction order: deterministic, baseline-driven
	// HasSeries records whether the sidecar carries the windowed-series
	// summary section. The section appears when the figure runs with
	// sampling on, so baseline and candidate gaining/losing it means the
	// two were produced by different schema generations — a shape
	// mismatch, not a perf delta.
	HasSeries bool
}

// comparableUnit reports whether a unit is lower-is-better and therefore
// diffable. Ratios ("x") and counts are shape, not speed, and byte sizes
// are workload parameters — none of them gate.
func comparableUnit(u string) bool {
	return u == "cycles" || u == "seconds"
}

// extract decodes one BENCH_fig*.json document — strictly, so a key
// bench.Sidecar does not declare or lacks is a shape error like any
// other — and pulls out its comparable metrics. It does not run
// Sidecar.Check: the diff compares the numbers two files state, and
// whether a file states consistent ones is mmt-bench's and mmt-stat's
// verdict.
func extract(data []byte) (*perfDoc, error) {
	var d bench.Sidecar
	if err := trace.DecodeStrict("BENCH_fig*.json sidecar", data, &d); err != nil {
		return nil, err
	}
	if d.Figure == "" {
		return nil, fmt.Errorf("BENCH_fig*.json sidecar: no figure")
	}
	doc := &perfDoc{Kind: "fig" + d.Figure, HasSeries: d.Series != nil}
	for _, t := range d.Totals {
		if comparableUnit(t.Unit) {
			doc.Metrics = append(doc.Metrics, metric{Name: "total/" + t.Name, Value: t.Value, Unit: t.Unit})
		}
	}
	for _, p := range d.PhaseCycles {
		doc.Metrics = append(doc.Metrics, metric{Name: "phase/" + p.Phase, Value: float64(p.Cycles), Unit: "cycles"})
	}
	for _, h := range d.Hists {
		base := "hist/" + h.Proc + "/" + h.Op + "/"
		doc.Metrics = append(doc.Metrics,
			metric{Name: base + "p50", Value: float64(h.P50), Unit: "cycles"},
			metric{Name: base + "p99", Value: float64(h.P99), Unit: "cycles"},
			metric{Name: base + "mean", Value: float64(h.Mean), Unit: "cycles"})
	}
	return doc, nil
}

// MetricDiff is one metric's baseline/candidate comparison in the report.
type MetricDiff struct {
	Metric    string  `json:"metric"`
	Unit      string  `json:"unit"`
	Baseline  float64 `json:"baseline"`
	Candidate float64 `json:"candidate"`
	// DeltaRel is (candidate-baseline)/|baseline| (with a 1e-12 floor on
	// the denominator so a zero baseline still yields a finite, huge
	// delta).
	DeltaRel  float64 `json:"delta_rel"`
	Regressed bool    `json:"regressed"`
	Improved  bool    `json:"improved"`
}

// Comparison is one candidate file's diff against the baseline.
type Comparison struct {
	Candidate   string       `json:"candidate"`
	Regressions int          `json:"regressions"`
	Improved    int          `json:"improved"`
	Metrics     []MetricDiff `json:"metrics"`
}

// Report is the mmt-perfdiff/v1 document.
type Report struct {
	Schema      string       `json:"schema"`
	Threshold   float64      `json:"threshold"`
	Baseline    string       `json:"baseline"`
	Kind        string       `json:"kind"`
	Regressions int          `json:"regressions"`
	Comparisons []Comparison `json:"comparisons"`
}

// errMismatch marks schema/shape mismatches — always fatal (exit 2),
// even under -warn: a mismatch means the baseline is stale, not slow.
type errMismatch struct{ msg string }

func (e *errMismatch) Error() string { return e.msg }

// side names which document carries the series section in the mismatch
// message.
func side(candidateHas bool) string {
	if candidateHas {
		return "the candidate"
	}
	return "the baseline"
}

// diffDocs compares each candidate against the baseline. The baseline
// defines the metric set: a metric missing from a candidate is a shape
// mismatch; extra candidate metrics are ignored (they gate once the
// baseline is regenerated).
func diffDocs(threshold float64, basePath string, base *perfDoc, candPaths []string, cands []*perfDoc) (*Report, error) {
	rep := &Report{Schema: ReportSchema, Threshold: threshold, Baseline: basePath, Kind: base.Kind}
	for i, cand := range cands {
		if cand.Kind != base.Kind {
			return nil, &errMismatch{fmt.Sprintf("%s: document kind %q does not match baseline %q", candPaths[i], cand.Kind, base.Kind)}
		}
		if cand.HasSeries != base.HasSeries {
			return nil, &errMismatch{fmt.Sprintf("%s: series section present in %s but not the other — schema generations differ (regenerate baselines / bump the schema)", candPaths[i], side(cand.HasSeries))}
		}
		byName := make(map[string]metric, len(cand.Metrics))
		for _, m := range cand.Metrics {
			byName[m.Name] = m
		}
		cmp := Comparison{Candidate: candPaths[i]}
		for _, bm := range base.Metrics {
			cm, ok := byName[bm.Name]
			if !ok {
				return nil, &errMismatch{fmt.Sprintf("%s: metric %q present in baseline but missing from candidate (stale baseline? regenerate it)", candPaths[i], bm.Name)}
			}
			denom := math.Max(math.Abs(bm.Value), 1e-12)
			d := MetricDiff{
				Metric: bm.Name, Unit: bm.Unit,
				Baseline: bm.Value, Candidate: cm.Value,
				DeltaRel: (cm.Value - bm.Value) / denom,
			}
			d.Regressed = d.DeltaRel > threshold
			d.Improved = d.DeltaRel < -threshold
			if d.Regressed {
				cmp.Regressions++
			}
			if d.Improved {
				cmp.Improved++
			}
			cmp.Metrics = append(cmp.Metrics, d)
		}
		rep.Regressions += cmp.Regressions
		rep.Comparisons = append(rep.Comparisons, cmp)
	}
	return rep, nil
}
