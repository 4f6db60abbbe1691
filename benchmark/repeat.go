package main

import (
	"fmt"
	"io"
)

// opBound is op_p10_ns's bound in BENCHMARK.json: how far two runs of the
// same code may differ before the difference cannot be called noise.
const opBound = 0.25

// allocBound is how far allocs_per_op and bytes_per_op may differ between
// runs that collect garbage; without collections they repeat exactly.
const allocBound = 0.01

// selfAgreement runs every workload k times, count-bound and on fresh
// cluster state each time, untraced and traced, and reports per metric
// the spread against its bound. Simulated cycles, the node-cache hit
// ratio, the op-sequence hash and the error rate must match exactly, and
// allocations within 1 %; op_p10_ns must stay within its bound, and is
// printed as unresolved — never as unchanged — when it does not. It
// reports false if any count differed or any output check failed.
func selfAgreement(out io.Writer, selected []workload, e *env, k int) (bool, error) {
	type table struct {
		order []string
		cols  map[string][]float64
	}
	tables := make([]table, len(selected))
	ok := true
	for i := 0; i < k; i++ {
		pr, err := probeAll(e)
		if err != nil {
			return false, err
		}
		for j, w := range selected {
			lim := countLimit(w, e.quick)
			res, err := runWorkload(w, e, lim, 1, nil)
			if err != nil {
				return false, err
			}
			rep, err := tracedRun(w, e, lim, pr, res)
			if err != nil {
				return false, err
			}
			ok = ok && res.failed == 0 && rep.Correct
			t := &tables[j]
			if t.cols == nil {
				t.cols = map[string][]float64{}
			}
			add := func(name string, v float64) {
				if _, seen := t.cols[name]; !seen {
					t.order = append(t.order, name)
				}
				t.cols[name] = append(t.cols[name], v)
			}
			add("op_p10_ns", res.opP10())
			add("allocs_per_op", res.allocsPerOp)
			add("bytes_per_op", res.bytesPerOp)
			add("sim_cycles_per_op", res.cyclesPerOp)
			add("op_sequence_hash", float64(uint64(res.hash)>>11)) // 53 bits survive a float64
			add("error_rate", float64(res.failed)/float64(res.attempted))
			add("traced.sim_cycles_per_op", rep.Metrics["api.sim_cycles_per_op"].Value)
			add("engine.node_hit_ratio", rep.Metrics["engine.node_hit_ratio"].Value)
		}
	}
	for j, w := range selected {
		fmt.Fprintf(out, "\n== %s: %d runs of %d samples ==\n", w.name, k, countLimit(w, e.quick).samples)
		for _, name := range tables[j].order {
			col := tables[j].cols[name]
			sp := spread(col)
			verdict := "exact"
			switch {
			case name == "op_p10_ns" && sp <= opBound:
				verdict = fmt.Sprintf("within %.0f%%", 100*opBound)
			case name == "op_p10_ns":
				verdict = "unresolved (spread exceeds the bound)"
			case sp == 0:
			case (name == "allocs_per_op" || name == "bytes_per_op") && sp <= allocBound:
				// Each collection empties the sync.Pools, which then refill:
				// under GC a few allocations per thousand ops depend on timing.
				verdict = fmt.Sprintf("within %.0f%%", 100*allocBound)
			default:
				verdict = "MISMATCH (a count must repeat exactly)"
				ok = false
			}
			fmt.Fprintf(out, "  %-26s spread %8.4f%%  %-40s %v\n", name, 100*sp, verdict, col)
		}
	}
	return ok, nil
}
