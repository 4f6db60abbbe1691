package main

// metrics.go is the single list of what the benchmark reports: the
// end-to-end metrics of an untraced run and the per-layer metrics of a
// traced run, each with its unit. BENCHMARK.json declares the same names
// and units; smoke_test.go holds the two together.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd is what every untraced run emits.
var endToEnd = []metricDef{
	{"op_p10_ns", "ns"},
	{"sim_cycles_per_op", "cycles"},
	{"setup_s", "s"},
}

// layers lists the modules a per-layer metric can belong to, top down.
var layers = []string{"api", "monitor", "core", "netsim", "channel", "engine", "tree", "crypt", "gf", "mem", "store", "attest", "trace", "bench"}

// rungs are the per-layer metrics that time one exported call: the value
// is the lower decile of that call's spans. The name's suffix is the unit.
var rungs = []string{
	"api.read_ns", "api.read_hotset_ns", "api.write_ns", "api.write_unaligned_ns",
	"api.delegate_ms", "api.delegate_copy_ms", "api.receive_us", "api.export_import_ms",
	"api.newbuffer_ms", "api.free_us", "api.write_full_ms", "api.read_full_ms",
	"api.checkpoint_delta_ms", "api.checkpoint_base_ms", "api.save_ms", "api.load_ms", "api.open_ms",
	"monitor.pmoof_ns", "monitor.alloc_acquire_ms", "monitor.sendpmo_ms", "monitor.pump_accept_ms",
	"monitor.pump_ack_us", "monitor.connect_ms",
	"core.read_ns", "core.write_ns", "core.beginsend_ms", "core.encode_ms", "core.decode_ms", "core.accept_ms",
	"netsim.send_recv_us",
	"channel.delegation_ms", "channel.secure_ms",
	"engine.readinto_ns", "engine.write_ns", "engine.readinto_fresh_ns", "engine.write_fresh_ns",
	"engine.enable_ms", "engine.export_ms", "engine.install_ms", "engine.invalidate_us",
	"tree.verifypath_ns", "tree.verifypath_h2_ns", "tree.verifypath_h4_ns", "tree.update_ns",
	"tree.rehashall_ms", "tree.verifyall_ms", "tree.serialize_us", "tree.deserialize_us",
	"crypt.nodehashbatch_ns", "crypt.nodemacbatch_ns", "crypt.nodehash_ns", "crypt.linehash_ns",
	"crypt.linemacbuf_ns", "crypt.maskfrombase_ns", "crypt.padline_ns", "crypt.xorline_ns", "crypt.xorpad_ns",
	"gf.mul_ns", "gf.eval_ns", "gf.evalbatch_ns",
	"mem.region_copy_us", "mem.region_write_us",
	"store.append_commit_ms", "store.append_commit_memfs_us", "store.open_ms",
	"attest.provision_boot_ms",
	"bench.timer_ns",
}

// values are the per-layer metrics that are not a timed call: counts,
// ratios and sizes measured where the work happens, plus the statistics
// of the workload's own traced top rung.
var values = []metricDef{
	{"api.op_p50_ns", "ns"}, {"api.op_tail_ns", "ns"}, {"api.heap_sys_mb", "MB"}, {"api.gc_cycles", "count"},
	{"api.allocs_per_op", "count"}, {"api.bytes_per_op", "B"}, {"api.sim_cycles_per_op", "cycles"},
	{"api.snapshot_bytes", "B"},
	{"core.wire_bytes", "B"},
	{"netsim.messages_per_op", "count"},
	{"engine.node_hit_ratio", "ratio"}, {"engine.allocs_per_read", "count"}, {"engine.allocs_per_write", "count"},
	{"store.delta_bytes", "B"},
	{"trace.tracing_overhead_pct", "%"}, {"trace.sampling_overhead_pct", "%"}, {"trace.tracing_allocs_per_op", "count"},
	{"bench.span_overhead_pct", "%"}, {"bench.ladder_min_self_pct", "%"}, {"bench.ladder_unresolved", "count"},
}

// selfLayers are the layers that can appear in a ladder and so get a
// <layer>.self_ns metric (0 on workloads whose ladder bypasses them).
var selfLayers = []string{"api", "monitor", "core", "netsim", "engine", "tree", "crypt", "gf", "mem", "store"}

// unitOf derives a rung's unit from its name.
func unitOf(name string) string {
	for _, u := range []string{"ns", "us", "ms"} {
		if strings.HasSuffix(name, "_"+u) {
			return u
		}
	}
	panic("benchmark: rung " + name + " has no unit suffix") // a typo in the tables above
}

// fromNs converts nanoseconds into unit.
func fromNs(ns float64, unit string) float64 {
	switch unit {
	case "us":
		return ns / 1e3
	case "ms":
		return ns / 1e6
	}
	return ns
}

// perLayer is the full per-layer metric list of a traced run.
func perLayer() []metricDef {
	var out []metricDef
	for _, r := range rungs {
		out = append(out, metricDef{r, unitOf(r)})
	}
	out = append(out, values...)
	for _, l := range selfLayers {
		out = append(out, metricDef{l + ".self_ns", "ns"})
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result: its JSON form is the contract's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	title string
	notes []string
}

func newReport(title string, defs []metricDef) *report {
	r := &report{title: title, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	return r
}

// set stores a declared metric. A value JSON cannot carry (NaN, ±Inf)
// means a measurement went wrong: it is recorded as a failed check.
func (r *report) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.notes = append(r.notes, fmt.Sprintf("%s is not finite", name))
		r.Failed++
		v = 0
	}
	m.Value = v
	r.Metrics[name] = m
}

func (r *report) seal() { r.Correct = r.Failed == 0 }

// print renders the report as a table: layer-grouped, name, value, unit.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", r.title)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	rank := func(n string) int {
		for i, l := range layers {
			if strings.HasPrefix(n, l+".") {
				return i + 1
			}
		}
		return 0
	}
	sort.Slice(names, func(i, j int) bool {
		if ri, rj := rank(names[i]), rank(names[j]); ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  error_rate %d/%d  correct=%v\n", r.Failed, r.Attempted, r.Correct)
}

// endToEndReport reduces an untraced run to the end-to-end metrics.
func endToEndReport(res *result) *report {
	r := newReport(res.workload+" (untraced, end to end)", endToEnd)
	r.Attempted, r.Failed = res.attempted, res.failed
	r.set("op_p10_ns", res.opP10())
	r.set("sim_cycles_per_op", res.cyclesPerOp)
	r.set("setup_s", res.setupS())
	sorted := sortedCopy(res.perOpNs)
	label, tl := tail(sorted)
	r.notes = append(r.notes,
		fmt.Sprintf("%d ops in %d samples; op p50 %.6g ns, %s %.6g ns", res.ops, len(res.perOpNs), quantile(sorted, 0.5), label, tl),
		fmt.Sprintf("allocs_per_op %.6g  bytes_per_op %.6g  gc_cycles %d  heap_sys %.1f MB", res.allocsPerOp, res.bytesPerOp, res.gcCycles, res.heapSysMB),
		fmt.Sprintf("op-sequence hash %016x", uint64(res.hash)))
	r.seal()
	return r
}
