package main

// run.go runs one workload: repeated set-up (for setup_s), the measured
// loop (count-bound or time-bound), the end-of-run checks, and the
// reduction of the samples to the end-to-end metrics.

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// setupReps is how many times a run sets its workload up. Set-up is a
// single sub-100 ms event dominated by key generation and one buffer
// fill; its median over several fresh clusters is what repeats.
func setupReps(e *env) int {
	if e.quick {
		return 1
	}
	return 15
}

// limit bounds the measured loop: by sample count (exact, repeatable
// counters) and/or by wall time (the driver's --seconds). Zero fields do
// not bound.
type limit struct {
	samples int
	seconds float64
}

// result is one run of one workload.
type result struct {
	workload  string
	perOpNs   []float64 // one value per timed sample: elapsed / batch
	ops       int
	attempted int
	failed    int
	setups    []float64 // seconds, one per set-up
	hash      seqHash

	allocsPerOp, bytesPerOp, cyclesPerOp float64
	gcCycles                             uint32
	heapSysMB                            float64
}

func (r *result) opP10() float64  { return quietP10(r.perOpNs) }
func (r *result) setupS() float64 { return quantile(sortedCopy(r.setups), 0.5) }

// spanFn, when non-nil, is told about every timed sample (traced runs).
type spanFn func(t timed, n int)

// runWorkload sets w up reps times, measures on the last instance, and
// checks the outputs.
func runWorkload(w workload, e *env, lim limit, reps int, span spanFn) (res *result, err error) {
	res = &result{workload: w.name}
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		runtime.GC() // every set-up starts from a collected heap, not the previous one's garbage
		t0 := time.Now()
		if inst, err = w.start(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := inst.close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("%s: close: %w", w.name, cerr))
		}
	}()

	runtime.GC() // start every measured loop from a collected heap
	before := readCounters(inst.machines()...)
	begin := time.Now()
	for i := 0; lim.samples == 0 || i < lim.samples; i++ {
		if lim.seconds > 0 && time.Since(begin).Seconds() >= lim.seconds {
			break
		}
		t, failed, err := inst.sample()
		if err != nil {
			return nil, fmt.Errorf("%s: sample %d: %w", w.name, i, err)
		}
		if span != nil {
			span(t, w.batch)
		}
		res.perOpNs = append(res.perOpNs, float64(t.elapsed.Nanoseconds())/float64(w.batch))
		res.ops += w.batch
		res.failed += failed
	}
	after := readCounters(inst.machines()...)
	if res.ops == 0 {
		return nil, fmt.Errorf("%s: no sample ran", w.name)
	}
	res.allocsPerOp, res.bytesPerOp, res.cyclesPerOp = after.perOp(before, res.ops)
	res.gcCycles = after.gcCycles - before.gcCycles
	res.heapSysMB = float64(after.heapSys) / (1 << 20)
	res.hash = inst.hash()

	checks, failed, err := inst.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: end-of-run check: %w", w.name, err)
	}
	res.attempted = res.ops + checks
	res.failed += failed
	return res, nil
}

// countLimit is the workload's count-bound length.
func countLimit(w workload, quick bool) limit {
	n := w.samples
	if quick {
		n = max(n/32, 2)
	}
	return limit{samples: n}
}
