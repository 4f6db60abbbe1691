// Command mmt-tracecheck validates the repository's two JSON trace
// artifacts against their schemas:
//
//   - Chrome trace-event files (from TraceSink.WriteChromeTrace or
//     `quickstart -trace`): a JSON array of "M"/"X"/"C" events with the
//     fields chrome://tracing and Perfetto require.
//   - BENCH_fig<N>.json metrics sidecars (from `mmt-bench -fig`):
//     headline totals plus the per-phase cycle breakdown, including the
//     phase-sum invariant (phase_sum_cycles accounts for
//     check_total_cycles when the figure reports a cycle total).
//   - Latency-histogram exports (from TraceSink.WriteHistJSON or
//     `quickstart -stats`): schema "mmt-hist/v1", per-process
//     per-operation fixed-bucket histograms with power-of-two bounds.
//   - Security-event ledger exports (from TraceSink.WriteEventsJSONL or
//     `quickstart -events`): schema "mmt-events/v1", a JSONL header plus
//     one cycle-stamped event per line with strictly increasing
//     sequence numbers and known event kinds.
//   - Snapshot manifests (from Manifest.WriteJSON or Cluster.Save):
//     schema "mmt-manifest/v1", the root hash plus per-machine summary
//     of one persisted cluster snapshot.
//   - Causal trace exports (from TraceSink.WriteCausalJSON or
//     `quickstart -causal`): schema "mmt-causal/v1", per-migration span
//     trees. Validated causally: parents precede children (acyclic by
//     construction), child intervals nest inside their parent, each
//     trace's total_cycles equals the sum of its span cycles, and the
//     critical path is a real root-to-leaf chain.
//   - Time-series exports (from TraceSink.WriteSeriesJSON or `mmt-bench
//     -fig 11 -series`): schema "mmt-series/v1", per-machine per-window
//     delta samples from the simulated-clock sampler. Validated
//     exactly: window labels strictly increase, the ring bound holds,
//     label names come from the enum tables, and per key the evicted
//     aggregate plus the retained deltas (summed left to right in
//     float64) equal the cumulative totals bit for bit — the sampler's
//     exact-delta construction makes tolerance unnecessary.
//
// The file kind is detected from the JSON shape (array = Chrome trace;
// object with a "schema" field = that schema; other object = metrics
// sidecar). Exit status 0 means every file validated.
//
// Usage:
//
//	mmt-tracecheck trace.json BENCH_fig10.json ...
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: mmt-tracecheck <file.json> ...")
		os.Exit(2)
	}
	failed := false
	for _, path := range os.Args[1:] {
		if err := checkFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Printf("ok   %s\n", path)
	}
	if failed {
		os.Exit(1)
	}
}

func checkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, c := range data {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '[':
			return checkChromeTrace(data)
		case '{':
			// A "schema" field selects the flavour; metrics sidecars
			// predate schema tagging and are detected by shape. The probe
			// decodes only the first JSON value so JSONL files (whose
			// whole content is not one document) still identify.
			var probe struct {
				Schema string `json:"schema"`
			}
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe); err != nil {
				return fmt.Errorf("not a JSON object: %w", err)
			}
			switch probe.Schema {
			case "mmt-hist/v1":
				return checkHist(data)
			case "mmt-events/v1":
				return checkEvents(data)
			case "mmt-manifest/v1":
				return checkManifest(data)
			case "mmt-causal/v1":
				return checkCausal(data)
			case "mmt-series/v1":
				return checkSeries(data)
			case "":
				return checkSidecar(data)
			default:
				return fmt.Errorf("unknown schema %q", probe.Schema)
			}
		default:
			return fmt.Errorf("neither a JSON array (Chrome trace) nor object (sidecar)")
		}
	}
	return fmt.Errorf("empty file")
}

// chromeEvent is the subset of the trace-event format the exporter emits.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Ts   *float64               `json:"ts"`
	Dur  *float64               `json:"dur"`
	Args map[string]interface{} `json:"args"`
}

func checkChromeTrace(data []byte) error {
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("not a trace-event array: %w", err)
	}
	pids := map[int]bool{}
	for i, ev := range events {
		at := func(format string, args ...interface{}) error {
			return fmt.Errorf("event %d (%s %q): %s", i, ev.Ph, ev.Name, fmt.Sprintf(format, args...))
		}
		if ev.Pid < 1 || ev.Tid < 1 {
			return at("pid/tid must be >= 1, got %d/%d", ev.Pid, ev.Tid)
		}
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" {
				return at("metadata events must be process_name")
			}
			if name, ok := ev.Args["name"].(string); !ok || name == "" {
				return at("missing args.name")
			}
			pids[ev.Pid] = true
		case "X":
			if ev.Name == "" || ev.Cat == "" {
				return at("complete events need name and cat")
			}
			if ev.Ts == nil || ev.Dur == nil {
				return at("complete events need ts and dur")
			}
			if *ev.Ts < 0 || *ev.Dur < 0 {
				return at("negative ts/dur: %v/%v", *ev.Ts, *ev.Dur)
			}
			if !pids[ev.Pid] {
				return at("pid %d has no process_name metadata", ev.Pid)
			}
		case "C":
			if ev.Ts == nil || len(ev.Args) == 0 {
				return at("counter events need ts and non-empty args")
			}
			for k, v := range ev.Args {
				n, ok := v.(float64)
				if !ok || n < 0 || n != math.Trunc(n) {
					return at("counter %q must be a non-negative integer, got %v", k, v)
				}
			}
			if !pids[ev.Pid] {
				return at("pid %d has no process_name metadata", ev.Pid)
			}
		default:
			return at("unknown phase type %q (want M, X or C)", ev.Ph)
		}
	}
	return nil
}

// sidecar mirrors internal/bench.Sidecar (kept in sync by the CI step
// that validates generated sidecars with this command).
type sidecar struct {
	Figure      string `json:"figure"`
	Profile     string `json:"profile"`
	Description string `json:"description"`
	Totals      []struct {
		Name  string   `json:"name"`
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"totals"`
	PhaseCycles []struct {
		Phase  string  `json:"phase"`
		Cycles float64 `json:"cycles"`
	} `json:"phase_cycles"`
	PhaseSumCycles   float64 `json:"phase_sum_cycles"`
	CheckTotalCycles float64 `json:"check_total_cycles"`
	Migrations       []struct {
		ID              string   `json:"id"`
		RootProc        string   `json:"root_proc"`
		Spans           *int     `json:"spans"`
		TotalCycles     *float64 `json:"total_cycles"`
		CriticalPathLen int      `json:"critical_path_len"`
		CriticalUs      *float64 `json:"critical_elapsed_us"`
	} `json:"migrations"`
	Series *struct {
		Schema       string  `json:"schema"`
		WindowCycles *uint64 `json:"window_cycles"`
		MaxSamples   *int    `json:"max_samples"`
		Procs        []struct {
			Proc       string   `json:"proc"`
			Windows    *uint64  `json:"windows"`
			Evicted    *uint64  `json:"evicted_windows"`
			LastWindow *uint64  `json:"last_window"`
			Cycles     *float64 `json:"cycles"`
		} `json:"procs"`
	} `json:"series"`
}

func checkSidecar(data []byte) error {
	var sc sidecar
	if err := json.Unmarshal(data, &sc); err != nil {
		return fmt.Errorf("not a sidecar object: %w", err)
	}
	if sc.Figure == "" || sc.Profile == "" || sc.Description == "" {
		return fmt.Errorf("figure, profile and description are required")
	}
	if len(sc.Totals) == 0 {
		return fmt.Errorf("no totals")
	}
	for i, tot := range sc.Totals {
		if tot.Name == "" || tot.Value == nil || tot.Unit == "" {
			return fmt.Errorf("total %d: name, value and unit are required", i)
		}
		switch tot.Unit {
		case "cycles", "seconds", "x", "bytes", "count":
		default:
			return fmt.Errorf("total %q: unknown unit %q", tot.Name, tot.Unit)
		}
	}
	var sum float64
	for _, ph := range sc.PhaseCycles {
		if ph.Phase == "" || ph.Cycles < 0 {
			return fmt.Errorf("phase entries need a name and non-negative cycles")
		}
		sum += ph.Cycles
	}
	if math.Abs(sum-sc.PhaseSumCycles) > 1e-9*math.Max(math.Abs(sum), math.Abs(sc.PhaseSumCycles)) {
		return fmt.Errorf("phase_cycles sum %.6f != phase_sum_cycles %.6f", sum, sc.PhaseSumCycles)
	}
	if sc.CheckTotalCycles != 0 {
		a, b := sc.PhaseSumCycles, sc.CheckTotalCycles
		if math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
			return fmt.Errorf("phase sum %.6f cycles does not account for reported total %.6f cycles", a, b)
		}
	}
	if len(sc.Migrations) > 0 {
		totals := map[string]float64{}
		for _, tot := range sc.Totals {
			totals[tot.Name] = *tot.Value
		}
		var sum float64
		for i, mg := range sc.Migrations {
			if mg.ID == "" || mg.RootProc == "" {
				return fmt.Errorf("migration %d: id and root_proc are required", i)
			}
			if mg.Spans == nil || mg.TotalCycles == nil || mg.CriticalUs == nil {
				return fmt.Errorf("migration %q: spans, total_cycles and critical_elapsed_us are required", mg.ID)
			}
			if *mg.Spans < 1 || *mg.TotalCycles < 0 || *mg.CriticalUs < 0 {
				return fmt.Errorf("migration %q: spans/total_cycles/critical_elapsed_us out of range", mg.ID)
			}
			if mg.CriticalPathLen < 1 || mg.CriticalPathLen > *mg.Spans {
				return fmt.Errorf("migration %q: critical_path_len %d outside [1,%d]", mg.ID, mg.CriticalPathLen, *mg.Spans)
			}
			sum += *mg.TotalCycles
		}
		if n, ok := totals["migrations"]; !ok || n != float64(len(sc.Migrations)) {
			return fmt.Errorf("migrations total %v does not match %d migration entries", totals["migrations"], len(sc.Migrations))
		}
		want := totals["migration-send-cycles"] + totals["migration-recv-cycles"]
		if math.Abs(sum-want) > 1e-9*math.Max(math.Abs(sum), math.Abs(want)) {
			return fmt.Errorf("migration trace cycles sum to %.6f, want send+recv totals %.6f", sum, want)
		}
	}
	if ss := sc.Series; ss != nil {
		if ss.Schema != "mmt-series/v1" {
			return fmt.Errorf("series: unknown schema %q (want mmt-series/v1)", ss.Schema)
		}
		if ss.WindowCycles == nil || ss.MaxSamples == nil {
			return fmt.Errorf("series: window_cycles and max_samples are required")
		}
		if w := *ss.WindowCycles; w == 0 || w&(w-1) != 0 {
			return fmt.Errorf("series: window_cycles %d is not a power of two", w)
		}
		if *ss.MaxSamples < 1 {
			return fmt.Errorf("series: max_samples %d must be >= 1", *ss.MaxSamples)
		}
		lastProc := ""
		for i, p := range ss.Procs {
			if p.Proc == "" {
				return fmt.Errorf("series proc %d: empty name", i)
			}
			if lastProc != "" && p.Proc <= lastProc {
				return fmt.Errorf("series procs not in name order: %q after %q", p.Proc, lastProc)
			}
			lastProc = p.Proc
			if p.Windows == nil || p.Evicted == nil || p.LastWindow == nil || p.Cycles == nil {
				return fmt.Errorf("series proc %q: windows, evicted_windows, last_window and cycles are required", p.Proc)
			}
			if *p.Windows < *p.Evicted {
				return fmt.Errorf("series proc %q: %d windows cannot include %d evicted", p.Proc, *p.Windows, *p.Evicted)
			}
			if *p.Cycles < 0 || math.IsNaN(*p.Cycles) || math.IsInf(*p.Cycles, 0) {
				return fmt.Errorf("series proc %q: cycles %v out of range", p.Proc, *p.Cycles)
			}
		}
	}
	return nil
}

// causalExport mirrors trace.WriteCausalJSON's document.
type causalExport struct {
	Schema string `json:"schema"`
	Traces []struct {
		ID           string   `json:"id"`
		RootProc     string   `json:"root_proc"`
		Seq          *uint64  `json:"seq"`
		TotalCycles  *float64 `json:"total_cycles"`
		CriticalUs   *float64 `json:"critical_elapsed_us"`
		CriticalPath []uint64 `json:"critical_path"`
		Spans        []struct {
			Span    *uint64  `json:"span"`
			Parent  *uint64  `json:"parent"`
			Proc    string   `json:"proc"`
			Phase   string   `json:"phase"`
			BeginUS *float64 `json:"begin_us"`
			EndUS   *float64 `json:"end_us"`
			Cycles  *float64 `json:"cycles"`
		} `json:"spans"`
	} `json:"traces"`
}

// checkCausal validates the causal invariants the exporter promises:
// span IDs strictly increase within a trace, every parent precedes its
// children (so the span graph is acyclic by construction), child
// intervals nest inside their parent's, per-trace total_cycles equals
// the sum of span cycles, and the critical path is a real chain from
// the root to a leaf whose elapsed time matches critical_elapsed_us.
func checkCausal(data []byte) error {
	var ce causalExport
	if err := json.Unmarshal(data, &ce); err != nil {
		return fmt.Errorf("not a causal export: %w", err)
	}
	for _, tr := range ce.Traces {
		at := func(format string, args ...interface{}) error {
			return fmt.Errorf("trace %q: %s", tr.ID, fmt.Sprintf(format, args...))
		}
		if tr.Seq == nil || tr.TotalCycles == nil || tr.CriticalUs == nil {
			return at("seq, total_cycles and critical_elapsed_us are required")
		}
		if tr.RootProc == "" || tr.ID != fmt.Sprintf("%s#%d", tr.RootProc, *tr.Seq) {
			return at("id must be root_proc#seq (root_proc %q, seq %d)", tr.RootProc, *tr.Seq)
		}
		if len(tr.Spans) == 0 {
			return at("no spans")
		}
		type spanInfo struct{ begin, end float64 }
		spans := map[uint64]spanInfo{}
		children := map[uint64][]uint64{}
		var cycleSum float64
		lastID := uint64(0)
		roots := 0
		for _, sp := range tr.Spans {
			if sp.Span == nil || sp.Parent == nil || sp.BeginUS == nil || sp.EndUS == nil || sp.Cycles == nil {
				return at("span, parent, begin_us, end_us and cycles are required")
			}
			id, parent := *sp.Span, *sp.Parent
			if id <= lastID {
				return at("span ids not strictly increasing: %d after %d", id, lastID)
			}
			lastID = id
			if sp.Proc == "" || sp.Phase == "" {
				return at("span %d: proc and phase are required", id)
			}
			if *sp.BeginUS < 0 || *sp.EndUS < *sp.BeginUS {
				return at("span %d: interval [%v,%v] out of order", id, *sp.BeginUS, *sp.EndUS)
			}
			if *sp.Cycles < 0 {
				return at("span %d: negative cycles", id)
			}
			if parent == 0 {
				roots++
			} else {
				// parent < id (checked transitively: parents must already be
				// in the map) makes the span graph acyclic by construction.
				p, ok := spans[parent]
				if !ok {
					return at("span %d: parent %d does not precede it", id, parent)
				}
				if *sp.BeginUS < p.begin || *sp.EndUS > p.end {
					return at("span %d: interval [%v,%v] escapes parent %d's [%v,%v]",
						id, *sp.BeginUS, *sp.EndUS, parent, p.begin, p.end)
				}
				children[parent] = append(children[parent], id)
			}
			spans[id] = spanInfo{*sp.BeginUS, *sp.EndUS}
			cycleSum += *sp.Cycles
		}
		if roots != 1 {
			return at("want exactly one root span (parent 0), got %d", roots)
		}
		if math.Abs(cycleSum-*tr.TotalCycles) > 1e-9*math.Max(math.Abs(cycleSum), math.Abs(*tr.TotalCycles)) {
			return at("span cycles sum to %.6f, want total_cycles %.6f", cycleSum, *tr.TotalCycles)
		}
		if len(tr.CriticalPath) == 0 {
			return at("empty critical_path")
		}
		rootID := *tr.Spans[0].Span
		if *tr.Spans[0].Parent != 0 {
			return at("first span %d is not the root", rootID)
		}
		if tr.CriticalPath[0] != rootID {
			return at("critical_path starts at %d, want root %d", tr.CriticalPath[0], rootID)
		}
		for i := 1; i < len(tr.CriticalPath); i++ {
			prev, cur := tr.CriticalPath[i-1], tr.CriticalPath[i]
			isChild := false
			for _, c := range children[prev] {
				if c == cur {
					isChild = true
					break
				}
			}
			if !isChild {
				return at("critical_path step %d -> %d is not a parent-child edge", prev, cur)
			}
		}
		leaf := tr.CriticalPath[len(tr.CriticalPath)-1]
		elapsed := spans[leaf].end - spans[rootID].begin
		// begin_us, end_us and critical_elapsed_us are each rounded to
		// 3 decimals independently, so the recomputed difference can
		// drift by up to 0.0015us from the exported value.
		if math.Abs(elapsed-*tr.CriticalUs) > 2e-3 {
			return at("critical path elapsed %.3fus does not match critical_elapsed_us %.3f", elapsed, *tr.CriticalUs)
		}
	}
	return nil
}

// validOps and validEventKinds mirror internal/trace's name tables (kept
// in sync by the CI step that validates generated exports with this
// command — an enum added without its name shows up here as FAIL).
var validOps = map[string]bool{
	"local-read": true, "local-write": true,
	"remote-read": true, "remote-write": true,
	"migration-send": true, "migration-recv": true,
	"verify": true, "reencrypt": true,
}

var validEventKinds = map[string]bool{
	"integrity-fail": true, "auth-fail": true,
	"replay-reject": true, "reorder-reject": true, "stale-counter": true,
	"migration-send": true, "migration-accept": true, "migration-reject": true,
	"delegation-ack": true, "cap-destroy": true,
}

// validPhases, validCounters and validSeverities mirror internal/trace's
// remaining name tables (same keep-in-sync contract as validOps above).
var validPhases = map[string]bool{
	"data-access": true, "root-mount": true, "tree-walk": true,
	"mac": true, "tree-update": true, "reencrypt": true,
	"memcpy": true, "encrypt": true, "decrypt": true, "dma": true,
	"delegation": true, "connect": true, "send": true, "recv": true,
	"app-compute": true, "wire": true,
}

var validCounters = map[string]bool{
	"tree-node-walks": true, "mac-verifies": true, "mac-updates": true,
	"node-cache-hits": true, "node-cache-misses": true, "root-mounts": true,
	"reencrypt-lines": true, "tree-node-verifies": true,
	"tree-node-verify-fails": true, "tree-node-rehashes": true,
	"closures-sent": true, "closures-accepted": true, "closures-rejected": true,
	"closure-encode-bytes": true, "closure-decode-bytes": true,
	"wire-msgs-data": true, "wire-msgs-closure": true, "wire-msgs-control": true,
	"wire-bytes-data": true, "wire-bytes-closure": true, "wire-bytes-control": true,
}

var validSeverities = map[string]bool{
	"info": true, "warn": true, "error": true,
}

// seriesSample and seriesExport mirror trace.WriteSeriesJSON's document.
type seriesSample struct {
	Window   *uint64            `json:"window"`
	Counters map[string]uint64  `json:"counters"`
	Cycles   map[string]float64 `json:"cycles"`
	Ops      map[string]struct {
		Count     *uint64  `json:"count"`
		SumCycles *float64 `json:"sum_cycles"`
	} `json:"ops"`
}

type seriesExport struct {
	Schema       string  `json:"schema"`
	WindowCycles *uint64 `json:"window_cycles"`
	MaxSamples   *int    `json:"max_samples"`
	Procs        []struct {
		Proc           string         `json:"proc"`
		EvictedWindows *uint64        `json:"evicted_windows"`
		EvictedThrough *uint64        `json:"evicted_through"`
		Evicted        *seriesSample  `json:"evicted"`
		Samples        []seriesSample `json:"samples"`
		Totals         *seriesSample  `json:"totals"`
	} `json:"procs"`
}

// checkSeriesNames validates one sample's label names and non-zero
// discipline (the exporter omits zero entries, so a zero here means a
// stale or hand-edited document).
func checkSeriesNames(d *seriesSample, what string, allowZero bool) error {
	if d.Window == nil || d.Counters == nil || d.Cycles == nil || d.Ops == nil {
		return fmt.Errorf("%s: window, counters, cycles and ops are required", what)
	}
	for k, v := range d.Counters {
		if !validCounters[k] {
			return fmt.Errorf("%s: unknown counter %q", what, k)
		}
		if v == 0 && !allowZero {
			return fmt.Errorf("%s: zero counter %q must be omitted", what, k)
		}
	}
	for k, v := range d.Cycles {
		if !validPhases[k] {
			return fmt.Errorf("%s: unknown phase %q", what, k)
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: phase %q cycles %v out of range", what, k, v)
		}
		if v == 0 && !allowZero {
			return fmt.Errorf("%s: zero phase %q must be omitted", what, k)
		}
	}
	for k, v := range d.Ops {
		if !validOps[k] {
			return fmt.Errorf("%s: unknown operation %q", what, k)
		}
		if v.Count == nil || v.SumCycles == nil {
			return fmt.Errorf("%s: op %q needs count and sum_cycles", what, k)
		}
		if *v.SumCycles < 0 || math.IsNaN(*v.SumCycles) || math.IsInf(*v.SumCycles, 0) {
			return fmt.Errorf("%s: op %q sum_cycles %v out of range", what, k, *v.SumCycles)
		}
		if *v.Count == 0 && *v.SumCycles == 0 && !allowZero {
			return fmt.Errorf("%s: zero op %q must be omitted", what, k)
		}
	}
	return nil
}

// checkSeries validates the sampler invariants the exporter promises:
// power-of-two window, name-ordered procs, strictly increasing window
// labels, the ring bound (max_samples retained deltas plus at most one
// synthesized tail), label names from the enum tables, and — the
// load-bearing one — that per key the evicted aggregate plus the
// retained deltas, summed left to right in float64, equal the
// cumulative totals EXACTLY. The sampler constructs every delta so the
// sum telescopes without rounding, so equality here is bit-for-bit.
func checkSeries(data []byte) error {
	var se seriesExport
	if err := json.Unmarshal(data, &se); err != nil {
		return fmt.Errorf("not a series export: %w", err)
	}
	if se.WindowCycles == nil || se.MaxSamples == nil {
		return fmt.Errorf("window_cycles and max_samples are required")
	}
	w := *se.WindowCycles
	if w == 0 || w&(w-1) != 0 {
		return fmt.Errorf("window_cycles %d is not a power of two", w)
	}
	if *se.MaxSamples < 1 {
		return fmt.Errorf("max_samples %d must be >= 1", *se.MaxSamples)
	}
	lastProc := ""
	for _, p := range se.Procs {
		at := func(format string, args ...interface{}) error {
			return fmt.Errorf("proc %q: %s", p.Proc, fmt.Sprintf(format, args...))
		}
		if p.Proc == "" {
			return fmt.Errorf("empty proc name")
		}
		if lastProc != "" && p.Proc <= lastProc {
			return fmt.Errorf("procs not in name order: %q after %q", p.Proc, lastProc)
		}
		lastProc = p.Proc
		if p.EvictedWindows == nil || p.EvictedThrough == nil || p.Totals == nil {
			return at("evicted_windows, evicted_through and totals are required")
		}
		if (*p.EvictedWindows > 0) != (p.Evicted != nil) {
			return at("evicted aggregate present iff evicted_windows > 0")
		}
		if len(p.Samples) == 0 && p.Evicted == nil {
			return at("idle proc must be omitted")
		}
		if len(p.Samples) > *se.MaxSamples+1 {
			return at("%d samples exceed the ring bound %d+1", len(p.Samples), *se.MaxSamples)
		}

		// Accumulate the exact left-to-right sum while walking the
		// samples; compare against totals afterwards.
		sumC := map[string]uint64{}
		sumCy := map[string]float64{}
		sumOpN := map[string]uint64{}
		sumOpS := map[string]float64{}
		fold := func(d *seriesSample) {
			for k, v := range d.Counters {
				sumC[k] += v
			}
			for k, v := range d.Cycles {
				sumCy[k] += v
			}
			for k, v := range d.Ops {
				sumOpN[k] += *v.Count
				sumOpS[k] += *v.SumCycles
			}
		}
		last := uint64(0)
		if p.Evicted != nil {
			if err := checkSeriesNames(p.Evicted, "evicted", true); err != nil {
				return at("%v", err)
			}
			if *p.Evicted.Window != *p.EvictedThrough {
				return at("evicted window %d != evicted_through %d", *p.Evicted.Window, *p.EvictedThrough)
			}
			last = *p.EvictedThrough
			fold(p.Evicted)
		}
		for i := range p.Samples {
			d := &p.Samples[i]
			if err := checkSeriesNames(d, fmt.Sprintf("sample %d", i), false); err != nil {
				return at("%v", err)
			}
			if (i > 0 || p.Evicted != nil) && *d.Window <= last {
				return at("sample %d: window %d not after %d", i, *d.Window, last)
			}
			last = *d.Window
			fold(d)
		}
		if err := checkSeriesNames(p.Totals, "totals", true); err != nil {
			return at("%v", err)
		}
		if *p.Totals.Window != last {
			return at("totals window %d != newest sample window %d", *p.Totals.Window, last)
		}

		// Exact equality in both key directions: a key missing from the
		// sum means a total appeared from nowhere; a key missing from
		// totals means deltas leaked.
		for k, v := range sumC {
			if tv := p.Totals.Counters[k]; tv != v {
				return at("counter %q: deltas sum to %d, totals say %d", k, v, tv)
			}
		}
		for k, v := range p.Totals.Counters {
			if sumC[k] != v {
				return at("counter %q: totals say %d, deltas sum to %d", k, v, sumC[k])
			}
		}
		for k, v := range sumCy {
			if tv := p.Totals.Cycles[k]; tv != v {
				return at("phase %q: deltas sum to %v, totals say %v (must be exact)", k, v, tv)
			}
		}
		for k, v := range p.Totals.Cycles {
			if sumCy[k] != v {
				return at("phase %q: totals say %v, deltas sum to %v (must be exact)", k, v, sumCy[k])
			}
		}
		for k, v := range sumOpN {
			if tv := p.Totals.Ops[k]; tv.Count == nil || *tv.Count != v || *tv.SumCycles != sumOpS[k] {
				return at("op %q: delta sums do not match totals exactly", k)
			}
		}
		for k := range p.Totals.Ops {
			if _, ok := sumOpN[k]; !ok {
				return at("op %q: in totals but absent from every delta", k)
			}
		}
	}
	return nil
}

// histExport mirrors trace.WriteHistJSON's document.
type histExport struct {
	Schema string `json:"schema"`
	Procs  []struct {
		Proc string `json:"proc"`
		Ops  []struct {
			Op      string   `json:"op"`
			Count   *uint64  `json:"count"`
			Sum     *float64 `json:"sum_cycles"`
			Min     *float64 `json:"min_cycles"`
			Max     *float64 `json:"max_cycles"`
			Mean    *float64 `json:"mean_cycles"`
			P50     *float64 `json:"p50_cycles"`
			P90     *float64 `json:"p90_cycles"`
			P99     *float64 `json:"p99_cycles"`
			Buckets []struct {
				LE    *float64 `json:"le_cycles"`
				Count *uint64  `json:"count"`
			} `json:"buckets"`
		} `json:"ops"`
	} `json:"procs"`
}

func checkHist(data []byte) error {
	var he histExport
	if err := json.Unmarshal(data, &he); err != nil {
		return fmt.Errorf("not a histogram export: %w", err)
	}
	lastProc := ""
	for _, p := range he.Procs {
		if p.Proc == "" {
			return fmt.Errorf("empty proc name")
		}
		if lastProc != "" && p.Proc <= lastProc {
			return fmt.Errorf("procs not in name order: %q after %q", p.Proc, lastProc)
		}
		lastProc = p.Proc
		if len(p.Ops) == 0 {
			return fmt.Errorf("proc %q: empty proc must be omitted", p.Proc)
		}
		for _, op := range p.Ops {
			at := func(format string, args ...interface{}) error {
				return fmt.Errorf("proc %q op %q: %s", p.Proc, op.Op, fmt.Sprintf(format, args...))
			}
			if !validOps[op.Op] {
				return at("unknown operation kind")
			}
			if op.Count == nil || op.Sum == nil || op.Min == nil || op.Max == nil ||
				op.Mean == nil || op.P50 == nil || op.P90 == nil || op.P99 == nil {
				return at("count, sum/min/max/mean and p50/p90/p99 are required")
			}
			if *op.Count == 0 {
				return at("empty histogram must be omitted")
			}
			if *op.Min > *op.Max || *op.Min < 0 {
				return at("min %v / max %v out of order", *op.Min, *op.Max)
			}
			if !(*op.P50 <= *op.P90 && *op.P90 <= *op.P99 && *op.P99 <= *op.Max) {
				return at("quantiles not monotone: p50=%v p90=%v p99=%v max=%v", *op.P50, *op.P90, *op.P99, *op.Max)
			}
			var n uint64
			lastLE := -1.0
			for _, b := range op.Buckets {
				if b.LE == nil || b.Count == nil || *b.Count == 0 {
					return at("buckets need le_cycles and a nonzero count")
				}
				if *b.LE <= lastLE {
					return at("bucket bounds not increasing: %v after %v", *b.LE, lastLE)
				}
				lastLE = *b.LE
				n += *b.Count
			}
			if n != *op.Count {
				return at("bucket counts sum to %d, want count %d", n, *op.Count)
			}
		}
	}
	return nil
}

// eventsHeader and eventLine mirror trace.WriteEventsJSONL's lines.
type eventsHeader struct {
	Schema  string  `json:"schema"`
	Events  *int    `json:"events"`
	Dropped *uint64 `json:"dropped"`
}

type eventLine struct {
	Seq      *uint64  `json:"seq"`
	Proc     string   `json:"proc"`
	Kind     string   `json:"kind"`
	Severity string   `json:"severity"`
	Window   *uint64  `json:"window"`
	TimeUS   *float64 `json:"time_us"`
	Addr     string   `json:"addr"`
	Detail   *string  `json:"detail"`
	Flight   []struct {
		Phase   string   `json:"phase"`
		BeginUS *float64 `json:"begin_us"`
		EndUS   *float64 `json:"end_us"`
	} `json:"flight"`
}

func checkEvents(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	var hdr eventsHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("bad header line: %w", err)
	}
	if hdr.Events == nil || hdr.Dropped == nil {
		return fmt.Errorf("header needs events and dropped counts")
	}
	var lastSeq uint64
	n := 0
	for dec.More() {
		var ev eventLine
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("event %d: %w", n, err)
		}
		at := func(format string, args ...interface{}) error {
			return fmt.Errorf("event %d (%s): %s", n, ev.Kind, fmt.Sprintf(format, args...))
		}
		if ev.Seq == nil || ev.TimeUS == nil || ev.Detail == nil {
			return at("seq, time_us and detail are required")
		}
		if ev.Window == nil {
			return at("missing sampler window index")
		}
		if ev.Proc == "" {
			return at("empty proc")
		}
		if !validEventKinds[ev.Kind] {
			return at("unknown event kind")
		}
		if !validSeverities[ev.Severity] {
			return at("unknown severity %q", ev.Severity)
		}
		for i, fs := range ev.Flight {
			if !validPhases[fs.Phase] {
				return at("flight span %d: unknown phase %q", i, fs.Phase)
			}
			if fs.BeginUS == nil || fs.EndUS == nil || *fs.BeginUS < 0 || *fs.EndUS < *fs.BeginUS {
				return at("flight span %d: bad interval", i)
			}
		}
		if *ev.TimeUS < 0 {
			return at("negative timestamp %v", *ev.TimeUS)
		}
		if len(ev.Addr) < 3 || ev.Addr[:2] != "0x" {
			return at("addr %q is not 0x-prefixed hex", ev.Addr)
		}
		if _, err := strconv.ParseUint(ev.Addr[2:], 16, 64); err != nil {
			return at("addr %q is not 0x-prefixed hex", ev.Addr)
		}
		if n > 0 && *ev.Seq <= lastSeq {
			return at("seq %d not after %d", *ev.Seq, lastSeq)
		}
		lastSeq = *ev.Seq
		n++
	}
	if n != *hdr.Events {
		return fmt.Errorf("header says %d events, file has %d", *hdr.Events, n)
	}
	return nil
}

// manifest mirrors mmt.Manifest's JSON form (Manifest.WriteJSON).
type manifest struct {
	Schema        string  `json:"schema"`
	Epoch         *uint64 `json:"epoch"`
	RootHash      string  `json:"root_hash"` // hex state hash of the snapshot (snap.Hash), as a Save trailer or commit record pins it
	SnapshotBytes *int    `json:"snapshot_bytes"`
	TreeLevels    int     `json:"tree_levels"`
	Regions       int     `json:"regions"`
	Profile       string  `json:"profile"`
	Machines      []struct {
		Name        string   `json:"name"`
		NodeID      *uint16  `json:"node_id"`
		Clock       *float64 `json:"clock_seconds"`
		LiveRegions *int     `json:"live_regions"`
	} `json:"machines"`
	Links []string `json:"links"`
}

func checkManifest(data []byte) error {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("not a snapshot manifest: %w", err)
	}
	if m.Schema != "mmt-manifest/v1" {
		return fmt.Errorf("unknown schema %q (want mmt-manifest/v1)", m.Schema)
	}
	if m.Epoch == nil || m.SnapshotBytes == nil {
		return fmt.Errorf("epoch and snapshot_bytes are required")
	}
	if len(m.RootHash) != 64 {
		return fmt.Errorf("root_hash %q is not 64 hex chars", m.RootHash)
	}
	for _, c := range m.RootHash {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return fmt.Errorf("root_hash %q is not lowercase hex", m.RootHash)
		}
	}
	if *m.SnapshotBytes <= len(m.RootHash)/2 {
		return fmt.Errorf("snapshot_bytes %d cannot hold the hash trailer", *m.SnapshotBytes)
	}
	if m.TreeLevels < 2 || m.TreeLevels > 4 {
		return fmt.Errorf("tree_levels %d outside [2,4]", m.TreeLevels)
	}
	if m.Regions < 1 {
		return fmt.Errorf("regions must be >= 1, got %d", m.Regions)
	}
	if m.Profile == "" {
		return fmt.Errorf("profile is required")
	}
	if len(m.Machines) == 0 {
		return fmt.Errorf("no machines")
	}
	lastName := ""
	for i, mc := range m.Machines {
		if mc.Name == "" {
			return fmt.Errorf("machine %d: empty name", i)
		}
		if lastName != "" && mc.Name <= lastName {
			return fmt.Errorf("machines not in name order: %q after %q", mc.Name, lastName)
		}
		lastName = mc.Name
		if mc.NodeID == nil || mc.Clock == nil || mc.LiveRegions == nil {
			return fmt.Errorf("machine %q: node_id, clock_seconds and live_regions are required", mc.Name)
		}
		if *mc.Clock < 0 || math.IsNaN(*mc.Clock) || math.IsInf(*mc.Clock, 0) {
			return fmt.Errorf("machine %q: clock_seconds %v out of range", mc.Name, *mc.Clock)
		}
		if *mc.LiveRegions < 0 || *mc.LiveRegions > m.Regions {
			return fmt.Errorf("machine %q: live_regions %d outside [0,%d]", mc.Name, *mc.LiveRegions, m.Regions)
		}
	}
	for i, l := range m.Links {
		if l == "" {
			return fmt.Errorf("link %d: empty id", i)
		}
	}
	return nil
}
