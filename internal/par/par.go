// Package par is the repository's deterministic parallel runner: a
// bounded worker pool that fans independent work units across OS threads
// while keeping every observable output byte-identical to a serial run.
//
// The determinism contract (DESIGN.md §9) has two halves:
//
//   - The runner's half: results land in input order regardless of
//     completion order, the reported error is the one the serial loop
//     would have returned (lowest input index), and worker count never
//     influences the value of any result — only wall-clock time.
//   - The caller's half: each work unit must own all mutable simulation
//     state it touches. In this codebase that means a work unit builds
//     its own sim.Clock, Controller, trace.Sink and causal roots, and the
//     caller merges per-unit sinks serially in input order afterwards.
//
// Simulated time is unaffected by construction: simulated clocks are
// per-unit state, so cycle totals are a pure function of the inputs. Only
// host wall-clock time changes with the worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map applies fn to every item on up to workers goroutines and returns
// the results in input order. workers <= 0 means runtime.GOMAXPROCS(0);
// workers == 1 runs the plain serial loop with no goroutines at all.
//
// On error, Map returns the error of the lowest-indexed failing item —
// the same one the serial loop would return — and a nil result slice.
// Unlike the serial loop, items dispatched before the failure was
// observed still run to completion (their results are discarded), so fn
// must not have side effects outside its own work unit.
func Map[T, R any](workers int, items []T, fn func(int, T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]R, n)
	if workers == 1 {
		for i := range items {
			r, err := fn(i, items[i])
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	var (
		next    atomic.Int64 // next item index to dispatch
		stop    atomic.Bool  // set on first error: no new dispatches
		wg      sync.WaitGroup
		errs    = make([]error, n)
		errSeen atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := fn(i, items[i])
				if err != nil {
					errs[i] = err
					errSeen.Store(true)
					stop.Store(true)
					continue
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if errSeen.Load() {
		// Items are dispatched in index order, so every index below the
		// lowest recorded error ran to completion without error; the
		// lowest recorded error is therefore exactly the serial one.
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ForEach applies fn to every item on up to workers goroutines, with the
// same ordering and error semantics as Map.
func ForEach[T any](workers int, items []T, fn func(int, T) error) error {
	_, err := Map(workers, items, func(i int, item T) (struct{}, error) {
		return struct{}{}, fn(i, item)
	})
	return err
}
