package analyzers

import (
	"go/types"
	"strconv"
)

// SimClock forbids wall-clock time and unseeded global randomness in
// simulation code. Every cycle count, queue delay and generated workload
// must be a pure function of the seed and the internal/sim clock, or the
// calibrated cost model silently stops being reproducible. It also keeps
// sim.Clock.AdvanceCycles to its one caller, trace.Probe.Charge, so that
// no cost moves a clock without being booked to a phase.
var SimClock = &Analyzer{
	Name: "simclock",
	ID:   "MMT001",
	Doc: "forbid time.Now/time.Sleep/etc. and unseeded math/rand globals in " +
		"internal/ simulation code; all timing must flow through internal/sim, " +
		"every clock charge through trace.Probe.Charge, and all randomness " +
		"through a seeded *rand.Rand",
	Run: runSimClock,
}

// bannedTimeFuncs are package time functions that read or wait on the
// wall clock. Pure conversions/constructors (time.Duration arithmetic,
// time.Unix, time.Date) stay legal: they do not observe the host.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// allowedRandFuncs are the math/rand package-level functions that do not
// touch the process-global (unseeded) source.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runSimClock(pass *Pass) {
	for _, u := range pass.Units {
		path := u.Pkg.Path()
		if !inScope(path) || path == "mmt/internal/sim" {
			// internal/sim is the sanctioned clock abstraction; it may wrap
			// package time (e.g. time.Duration formatting) as it sees fit.
			continue
		}
		// Walk every use of an imported function object. Iterating
		// TypesInfo.Uses (a map) is fine here: the driver sorts findings
		// by position.
		for id, obj := range u.TypesInfo.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTimeFuncs[fn.Name()] {
					pass.Reportf(id.Pos(), "time.%s reads the wall clock; simulation code must derive timing from internal/sim", fn.Name())
				}
			case "mmt/internal/sim":
				if fn.Name() == "AdvanceCycles" && path != "mmt/internal/trace" {
					pass.Reportf(id.Pos(), "sim.Clock.AdvanceCycles outside trace.Probe.Charge moves the clock without booking a phase")
				}
			case "math/rand", "math/rand/v2":
				if fn.Signature().Recv() == nil && !allowedRandFuncs[fn.Name()] {
					pass.Reportf(id.Pos(), "rand.%s uses the process-global random source; use a seeded rand.New(rand.NewSource(seed))", fn.Name())
				}
			}
		}
		// Separately flag dot-imports of time/math/rand, which would let the
		// banned names appear unqualified.
		for _, f := range u.Files {
			for _, imp := range f.Imports {
				if imp.Name != nil && imp.Name.Name == "." {
					if p, _ := strconv.Unquote(imp.Path.Value); p == "time" || p == "math/rand" || p == "math/rand/v2" {
						pass.Reportf(imp.Pos(), "dot-import of %q hides wall-clock and global-rand calls", p)
					}
				}
			}
		}
	}
}
