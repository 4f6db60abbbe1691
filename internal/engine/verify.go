package engine

import (
	"fmt"
	"runtime"

	"mmt/internal/crypt"
	"mmt/internal/mem"
	"mmt/internal/par"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// VerifyRegions re-verifies the complete integrity state of the listed
// secure regions — every tree node MAC and every data line MAC — fanning
// the regions across up to workers goroutines (workers <= 1 runs
// serially; see internal/par for the semantics). This is the meta-zone
// scrub a monitor runs after resuming from untrusted storage or
// periodically against physical attacks; each region's verification is
// independent, which makes it the engine's embarrassingly-parallel batch
// operation.
//
// Determinism: the result is independent of workers. On failure the error
// names the lowest-indexed failing region (par.ForEach's contract).
// Functional verification must not touch the shared trace probe from
// worker goroutines, so each region's node verifies are counted and
// applied to the probe serially, in input order, after all regions pass;
// on error no trace counts from the batch are recorded. A region may
// appear only once: the per-region trees and their scratch buffers are
// the work-unit-owned state.
//
// Timing: scrubbing is off the critical access path; like Install and
// Export, it charges no simulated cycles.
func (c *Controller) VerifyRegions(regions []int, workers int) error {
	seen := make(map[int]bool, len(regions))
	for _, r := range regions {
		st := c.region(r)
		if st.mode == ModeDisabled {
			return fmt.Errorf("%w: region %d", ErrDisabled, r)
		}
		if seen[r] {
			return fmt.Errorf("engine: region %d listed twice in VerifyRegions", r)
		}
		seen[r] = true
	}
	// Detach tracing for the parallel section; trace.Probe is not safe for
	// concurrent use.
	probes := make([]*trace.Probe, len(regions))
	for i, r := range regions {
		probes[i] = c.region(r).tr.Probe()
		c.region(r).tr.SetTrace(nil)
	}
	restore := func() {
		for i, r := range regions {
			c.region(r).tr.SetTrace(probes[i])
		}
	}

	verifies := make([]uint64, len(regions))
	err := par.ForEach(workers, regions, func(i, r int) error {
		st := c.region(r)
		if err := st.tr.VerifyAll(st.eng, st.guaddr); err != nil {
			return fmt.Errorf("region %d: %w", r, err)
		}
		nodes := uint64(c.lay.Nodes)
		if bad := sweepLineMACs(st.eng, st.tr, st.guaddr, c.mem.RegionData(r), st.lineMACs, 0, c.lay.Lines); bad >= 0 {
			return fmt.Errorf("region %d: %w: data line %d", r, ErrIntegrity, bad)
		}
		verifies[i] = nodes
		return nil
	})
	restore()
	if err != nil {
		return err
	}
	for i := range regions {
		c.probe.Count(trace.CtrTreeNodeVerifies, verifies[i])
		c.probe.Count(trace.CtrMACVerifies, uint64(c.lay.Lines))
	}
	return nil
}

// sweepLines runs fn over every line of a region, cut into contiguous
// chunks, one per available processor. A chunk is a whole number of 64-line
// groups, because the sweeps that fill line planes set bits in validity
// words (lineOK) that 64 lines share; beyond that fn must touch only state
// of its own lines. The error is the lowest failing chunk's (par.ForEach),
// so a sweep that stops at its first bad line reports the lowest bad line
// whatever the processor count. With one processor it is the plain loop:
// no goroutine, no allocation.
func (c *Controller) sweepLines(fn func(lo, hi int) error) error {
	lines := c.lay.Lines
	groups := (lines + 63) / 64
	workers := min(runtime.GOMAXPROCS(0), groups)
	if workers == 1 {
		return fn(0, lines)
	}
	return par.ForEach(workers, make([]struct{}, workers), func(i int, _ struct{}) error {
		return fn(i*groups/workers*64, min((i+1)*groups/workers*64, lines))
	})
}

// verifyLineMACs checks every transferred line's MAC at the counter the
// (already verified) tree holds for it, and names the lowest line that
// fails. The chunks share only read-only inputs.
func (c *Controller) verifyLineMACs(eng *crypt.Engine, tr *tree.Tree, guaddr uint64, data []byte, lineMACs []uint64) error {
	return c.sweepLines(func(lo, hi int) error {
		if bad := sweepLineMACs(eng, tr, guaddr, data, lineMACs, lo, hi); bad >= 0 {
			return fmt.Errorf("%w: transferred data line %d", ErrIntegrity, bad)
		}
		return nil
	})
}

// sweepLineMACs verifies lines [lo, hi) of a region's ciphertext against
// lineMACs and returns the first line that does not match, or -1. It works
// 64 lines at a time, staged on the stack: their mask bases in one
// multi-block AES call, the masks from them in a second, their hashes in
// one entry into the dot-product kernel, then the compares in line order.
// It only reads its inputs, so several sweeps over disjoint ranges may run
// at once.
//
//mmt:hotpath
func sweepLineMACs(eng *crypt.Engine, tr *tree.Tree, guaddr uint64, data []byte, lineMACs []uint64, lo, hi int) int {
	var (
		ids  [64]uint32
		ctrs [64]uint64
		hash [64]uint64
		blk  [64 * crypt.MaskBaseSize]byte
	)
	for ; lo < hi; lo += len(ids) {
		n := min(len(ids), hi-lo)
		for i := range n {
			ids[i] = uint32(lo + i)
		}
		tr.LeafCounters(lo, ctrs[:n])
		eng.MaskBases(guaddr, crypt.DomainLineMAC, ids[:n], blk[:])
		eng.MasksFromBases(blk[:], ctrs[:n])
		eng.LineHashes(data[lo*mem.LineSize:(lo+n)*mem.LineSize], hash[:])
		for i := range n {
			// Constant-time compare: the MACs are untrusted (wire or meta-zone).
			if !crypt.TagEqual(hash[i]^crypt.Mask(blk[i*crypt.MaskBaseSize:]), lineMACs[lo+i]) {
				return lo + i
			}
		}
	}
	return -1
}
