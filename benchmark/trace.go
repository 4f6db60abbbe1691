package main

// trace.go is the traced run. Spans are recorded in memory, from this
// package's files, around every call into a layer, and written out when
// the run ends. There are no spans inside the program under test, so a
// span cannot enclose its callees' spans: each rung of a ladder is timed
// separately, on equivalent state and the same seeded inputs, and a
// rung's self time is its inclusive time minus the inclusive time of the
// rungs it calls.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call (or batch of calls) into one layer.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"` // the rung that calls this one in the workload's ladder
	Op      int    `json:"op"`               // sample index within Name
	StartNs int64  `json:"start_ns"`         // since the recorder started
	EndNs   int64  `json:"end_ns"`
	Calls   int    `json:"calls"` // calls covered; per-call time is (end-start)/calls
}

type recorder struct {
	origin time.Time
	spans  []span
	seen   map[string]int
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), seen: map[string]int{}} }

func (r *recorder) add(name string, t timed, calls int) {
	start := t.start.Sub(r.origin).Nanoseconds()
	r.spans = append(r.spans, span{Name: name, Op: r.seen[name], StartNs: start, EndNs: start + t.elapsed.Nanoseconds(), Calls: calls})
	r.seen[name]++
}

// time runs fn, which makes calls calls into a layer, inside a span.
func (r *recorder) time(name string, calls int, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t := since(t0)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.add(name, t, calls)
	return nil
}

// step is time as a deferred step of inOrder.
func (r *recorder) step(name string, calls int, fn func() error) func() error {
	return func() error { return r.time(name, calls, fn) }
}

// inOrder runs steps one after another and stops at the first error, so a
// later step never sees state an earlier one failed to build.
func inOrder(steps ...func() error) error {
	for _, s := range steps {
		if err := s(); err != nil {
			return err
		}
	}
	return nil
}

// perCallNs lists name's samples as nanoseconds per call.
func (r *recorder) perCallNs(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/float64(s.Calls))
		}
	}
	return out
}

// topRung names the spans of the workload's own op in a traced run.
const topRung = "api.op"

// rung is one node of a ladder: a separately timed call, how many times
// its parent makes it, and the rungs it calls in turn.
type rung struct {
	name  string
	calls float64
	kids  []rung
}

func n(name string, calls float64, kids ...rung) rung { return rung{name, calls, kids} }

// The path verification every protected line access starts with.
func verifyPath() rung {
	return n("tree.verifypath_ns", 1,
		n("crypt.nodehashbatch_ns", 1, n("gf.evalbatch_ns", 1), n("gf.mul_ns", 6)))
}

// The whole-region line-MAC sweep (Enable, Install).
func macSweep(lines float64) rung { return n("crypt.linemacbuf_ns", lines, n("gf.mul_ns", 8)) }

// ladders maps each workload to the call tree beneath its op, as read
// from the source at the commit that added the benchmark. Rung names are
// the per-layer metric names; calls are per call of the parent. 32768 is
// the line count of the default 2 MB buffer.
var ladders = map[string]rung{
	"line-read": n(topRung, 1,
		n("monitor.pmoof_ns", 1),
		n("core.read_ns", 1,
			n("engine.readinto_ns", 1,
				verifyPath(),
				n("crypt.linehash_ns", 1, n("gf.mul_ns", 8)),
				n("crypt.xorline_ns", 1)))),
	"line-write": n(topRung, 1,
		n("monitor.pmoof_ns", 1),
		n("core.write_ns", 1,
			n("engine.write_ns", 1,
				verifyPath(),
				n("tree.update_ns", 1,
					n("crypt.nodehash_ns", 1, n("gf.eval_ns", 1), n("gf.mul_ns", 6)),
					n("crypt.maskfrombase_ns", 3)),
				n("crypt.padline_ns", 1),
				n("crypt.maskfrombase_ns", 1),
				n("crypt.xorline_ns", 1),
				n("crypt.linehash_ns", 1, n("gf.mul_ns", 8))))),
	"migrate": n(topRung, 1,
		n("api.receive_us", 1),
		n("monitor.sendpmo_ms", 1,
			n("core.beginsend_ms", 1,
				n("engine.export_ms", 1, n("tree.serialize_us", 1), n("mem.region_copy_us", 1))),
			n("core.encode_ms", 1),
			n("netsim.send_recv_us", 1)),
		n("monitor.pump_accept_ms", 1,
			n("core.accept_ms", 1,
				n("core.decode_ms", 1),
				n("engine.install_ms", 1,
					n("tree.deserialize_us", 1),
					n("tree.verifyall_ms", 1),
					macSweep(32768),
					n("mem.region_write_us", 1)))),
		n("monitor.pump_ack_us", 1)),
	"bulk": n(topRung, 1,
		n("api.newbuffer_ms", 1,
			n("monitor.alloc_acquire_ms", 1,
				n("engine.enable_ms", 1,
					n("tree.rehashall_ms", 1),
					n("crypt.xorpad_ns", 32768),
					macSweep(32768)))),
		n("api.write_full_ms", 1, n("engine.write_fresh_ns", 32768)),
		n("api.read_full_ms", 1, n("engine.readinto_fresh_ns", 32768)),
		n("api.free_us", 1, n("engine.invalidate_us", 1))),
	"persist": n(topRung, 1,
		n("store.append_commit_ms", 1)),
}

func layerOf(name string) string { return name[:strings.IndexByte(name, '.')] }

// selfTimes walks a ladder with each rung's inclusive time per call
// (incl, nanoseconds) and returns every layer's self time per op, plus
// the most negative single self time — which should not exist: a rung
// cannot be faster than what it calls, so a clearly negative value means
// the separately timed rungs are not on equivalent state.
func selfTimes(top rung, incl func(string) float64) (byLayer map[string]float64, minSelf float64) {
	byLayer = map[string]float64{}
	var walk func(r rung, perOp float64)
	walk = func(r rung, perOp float64) {
		self := incl(r.name)
		for _, k := range r.kids {
			self -= k.calls * incl(k.name)
			walk(k, perOp*k.calls)
		}
		byLayer[layerOf(r.name)] += perOp * self
		minSelf = min(minSelf, perOp*self)
	}
	walk(top, top.calls)
	return byLayer, minSelf
}

// parents maps each rung of a ladder to the rung that calls it.
func parents(top rung) map[string]string {
	out := map[string]string{}
	var walk func(r rung)
	walk = func(r rung) {
		for _, k := range r.kids {
			if _, dup := out[k.name]; !dup {
				out[k.name] = r.name
			}
			walk(k)
		}
	}
	walk(top)
	return out
}

// tolerance is the share of the top rung by which the traced and untraced
// runs, and a rung and its callees, may disagree before the per-layer
// table is marked unresolved.
const tolerance = 0.05

// probed is the workload-independent half of a traced run: every layer's
// rung spans, the values measured beside them, and their output checks.
type probed struct {
	rec *recorder
	rep *report
}

// probeAll times every rung of every layer once.
func probeAll(e *env) (*probed, error) {
	pr := &probed{rec: newRecorder(), rep: newReport("", perLayer())}
	if err := probeLayers(pr.rec, e, pr.rep); err != nil {
		return nil, err
	}
	return pr, nil
}

// tracedRun produces the per-layer report of workload w. It replays a
// slice of the seeded op sequence twice on fresh clusters — without and
// with spans, which gives the tracing overhead — and derives the
// workload's self times from its ladder and the rung times in pr.
// untraced, when the caller has just run w untraced, is only used to
// print the end-to-end figure beside the traced one.
func tracedRun(w workload, e *env, lim limit, pr *probed, untraced *result) (*report, error) {
	slice := limit{samples: max(lim.samples/4, 2)}
	if lim.samples == 0 {
		slice = limit{seconds: lim.seconds / 5}
	}
	plain, err := runWorkload(w, e, slice, 1, nil)
	if err != nil {
		return nil, err
	}
	rec := &recorder{origin: pr.rec.origin, seen: map[string]int{}}
	traced, err := runWorkload(w, e, slice, 1, func(t timed, calls int) { rec.add(topRung, t, calls) })
	if err != nil {
		return nil, err
	}
	rec.spans = append(rec.spans, pr.rec.spans...)

	rep := newReport(w.name+" (traced, per layer)", perLayer())
	for name, m := range pr.rep.Metrics {
		rep.Metrics[name] = m
	}
	rep.notes = append(rep.notes, pr.rep.notes...)
	rep.Attempted = pr.rep.Attempted + plain.attempted + traced.attempted
	rep.Failed = pr.rep.Failed + plain.failed + traced.failed

	for _, name := range rungs {
		samples := rec.perCallNs(name)
		if len(samples) == 0 {
			return nil, fmt.Errorf("rung %s recorded no span", name)
		}
		rep.set(name, fromNs(p10(samples), unitOf(name)))
	}
	sorted := sortedCopy(traced.perOpNs)
	label, tl := tail(sorted)
	rep.set("api.op_p50_ns", quantile(sorted, 0.5))
	rep.set("api.op_tail_ns", tl)
	rep.set("api.heap_sys_mb", traced.heapSysMB)
	rep.set("api.gc_cycles", float64(traced.gcCycles))
	rep.set("api.allocs_per_op", traced.allocsPerOp)
	rep.set("api.bytes_per_op", traced.bytesPerOp)
	rep.set("api.sim_cycles_per_op", traced.cyclesPerOp)

	top := traced.opP10()
	overhead := (top - plain.opP10()) / plain.opP10()
	rep.set("bench.span_overhead_pct", 100*overhead)
	byLayer, minSelf := selfTimes(ladders[w.name], func(name string) float64 {
		if name == topRung {
			return top
		}
		return p10(rec.perCallNs(name))
	})
	for _, l := range selfLayers {
		rep.set(l+".self_ns", byLayer[l])
	}
	rep.set("bench.ladder_min_self_pct", 100*minSelf/top)
	if overhead > tolerance || overhead < -tolerance || minSelf < -tolerance*top {
		rep.set("bench.ladder_unresolved", 1)
		rep.notes = append(rep.notes, "per-layer table UNRESOLVED: traced and untraced top rung, or a rung and its callees, disagree by more than 5% of the top rung")
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("top rung %s: %d samples, p10 %.6g ns traced vs %.6g ns untraced; tail is %s", topRung, len(sorted), top, plain.opP10(), label),
		fmt.Sprintf("op-sequence hash %016x", uint64(traced.hash)))
	if untraced != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("full untraced run: op_p10_ns %.6g, sim_cycles_per_op %.6g (traced slice %.6g)",
			untraced.opP10(), untraced.cyclesPerOp, traced.cyclesPerOp))
	}
	if slice.samples > 0 {
		// Count-bound slices replay the same ops: their counts must agree.
		rep.check(plain.hash == traced.hash && plain.cyclesPerOp == traced.cyclesPerOp,
			"traced and untraced slices disagree on the op sequence or its simulated cycles")
	}
	rep.seal()
	if err := writeSpans(e, w.name, rec, parents(ladders[w.name])); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeSpans dumps the recorded spans, with the environment they were
// taken in, to the scratch directory.
func writeSpans(e *env, workload string, rec *recorder, parent map[string]string) error {
	for i := range rec.spans {
		rec.spans[i].Parent = parent[rec.spans[i].Name]
	}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload    string      `json:"workload"`
		Seed        uint64      `json:"seed"`
		Environment environment `json:"environment"`
		Spans       []span      `json:"spans"`
	}{workload, e.seed, readEnvironment(), rec.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.workdir, fmt.Sprintf("spans-%s-%d.json", workload, e.seed)), data, 0o644)
}
