package engine

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"mmt/internal/crypt"
	"mmt/internal/mem"
	"mmt/internal/tree"
)

// A pipe runs the line crypto of a span on other goroutines, beside the
// serial loop that accounts for it (a range access) or beside nothing
// (sweepLines). The span is cut into chunks at absolute multiples of a
// stride that is a whole number of 64-line groups, because the plane
// validity words are shared by 64 lines, and, for a range access, of
// leaves, so that no leaf run crosses a chunk and the loop over a chunk
// charges exactly what the loop over the span would. A stage ahead of the
// loop (ahead, await) runs on helpers, one per further processor, that
// claim chunks in order; a stage behind it (behind) runs on a goroutine
// per chunk the loop has passed. Each stage touches only state of its
// chunk's lines, and the loop never again touches a chunk it has passed,
// nor one ahead of it before await has returned it.
type pipe struct {
	lo, hi, stride, first, chunks int

	verdict []int            // per chunk: the ahead stage's result
	done    []sync.WaitGroup // per chunk: released once its ahead stage has run
	next    atomic.Int64     // the first chunk no ahead stage has claimed
	fn      func(lo, hi int) int
	wg      sync.WaitGroup // every goroutine the pipe started
}

// newPipe cuts the lines [lo, hi) into about four chunks per processor at
// absolute multiples of a stride that is a whole number of 64-line groups
// and of align lines, or returns nil when the span is read or written
// inline: it falls in one chunk (one 64-line group at the least), or there
// is one processor. The group test comes first, so that a span of one
// group does not even ask the runtime for its processor count.
func newPipe(lo, hi, align int) *pipe {
	if (hi-1)/64 == lo/64 {
		return nil
	}
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 {
		return nil
	}
	unit := align >> min(bits.TrailingZeros(uint(align)), 6) * 64 // lcm(align, 64)
	stride := max(unit, ((hi-lo)/(4*procs)+unit-1)/unit*unit)
	if (hi-1)/stride == lo/stride {
		return nil
	}
	return &pipe{lo: lo, hi: hi, stride: stride, first: lo / stride, chunks: (hi-1)/stride - lo/stride + 1}
}

// cut is chunk k's stretch of the span.
func (p *pipe) cut(k int) (lo, hi int) {
	return max(p.lo, (p.first+k)*p.stride), min(p.hi, (p.first+k+1)*p.stride)
}

// ahead starts the stage fn that runs ahead of the loop: each chunk's
// result is fn(cut(k)), collected by await.
func (p *pipe) ahead(fn func(lo, hi int) int) {
	p.fn = fn
	p.verdict = make([]int, p.chunks)
	p.done = make([]sync.WaitGroup, p.chunks)
	for k := range p.done {
		p.done[k].Add(1)
	}
	for range min(runtime.GOMAXPROCS(0), p.chunks) - 1 {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.help()
		}()
	}
}

// help runs the ahead stage on the unclaimed chunks, in order, until none
// is left.
func (p *pipe) help() {
	for k := int(p.next.Add(1)) - 1; k < p.chunks; k = int(p.next.Add(1)) - 1 {
		p.run(k)
	}
}

func (p *pipe) run(k int) {
	p.verdict[k] = p.fn(p.cut(k))
	p.done[k].Done()
}

// await returns chunk k's ahead result, running the stage itself on every
// chunk up to k that no helper has claimed yet.
func (p *pipe) await(k int) int {
	for j := p.next.Load(); j <= int64(k); j = p.next.Load() {
		if p.next.CompareAndSwap(j, j+1) {
			p.run(int(j))
		}
	}
	p.done[k].Wait()
	return p.verdict[k]
}

// behind runs fn over the lines [lo, hi), which the loop has passed, on a
// goroutine of its own.
func (p *pipe) behind(lo, hi int, fn func(lo, hi int)) {
	if lo >= hi {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn(lo, hi)
	}()
}

// wait stops the helpers claiming further chunks and returns once every
// goroutine the pipe started has.
func (p *pipe) wait() {
	p.next.Store(int64(p.chunks))
	p.wg.Wait()
}

// sweepLines runs fn over every line of a region through a pipe with no
// loop beside it: the helpers and the caller claim its chunks in order
// until none is left. fn must touch only state of its own lines (and the
// lineOK words of its groups) and reports the first line of its chunk
// that fails, or -1;
// sweepLines reports the lowest such line, or -1. A chunk's lines all
// precede the next chunk's and the chunks are awaited in order, so that
// is the lowest failing line whatever the processor count. With one
// processor it is the plain call: no goroutine, no allocation.
func (c *Controller) sweepLines(fn func(lo, hi int) int) int {
	p := newPipe(0, c.lay.Lines, 1)
	if p == nil {
		return fn(0, c.lay.Lines)
	}
	p.ahead(fn)
	p.help()
	defer p.wait()
	for k := range p.chunks {
		if bad := p.await(k); bad >= 0 {
			return bad
		}
	}
	return -1
}

// groupEnd is the end of the 64-line group that line g starts, cut at hi:
// the step of every loop over a pipe chunk.
func groupEnd(g, hi int) int { return min((g|63)+1, hi) }

// verifyLineMACs checks every transferred line's MAC at the counter the
// (already verified) tree holds for it, and names the lowest line that
// fails. The chunks share only read-only inputs; each stages its AES
// blocks in its own lines' stretch of bases, a plane of
// crypt.LineBasesSize bytes per line whose contents it may overwrite.
func (c *Controller) verifyLineMACs(eng *crypt.Engine, tr *tree.Tree, guaddr uint64, data []byte, lineMACs []uint64, bases []byte) error {
	if bad := c.sweepLines(func(lo, hi int) int {
		return sweepLineMACs(eng, tr, guaddr, data, lineMACs, bases[lo*crypt.LineBasesSize:hi*crypt.LineBasesSize], lo, hi)
	}); bad >= 0 {
		return fmt.Errorf("%w: transferred data line %d", ErrIntegrity, bad)
	}
	return nil
}

// sweepLineMACs verifies lines [lo, hi) of a region's ciphertext against
// lineMACs and returns the first line that does not match, or -1. It works
// 64 lines at a time: their mask bases in one multi-block AES call, the
// masks from them in a second, both staged in blk (at least
// crypt.MaskBaseSize bytes for each of min(64, hi-lo) lines; heap memory,
// which the portable AES, reaching its cipher through an interface, would
// otherwise move a stack array to), their hashes in one entry into the
// dot-product kernel, then the compares in line order. It writes only
// blk, so several sweeps over disjoint ranges, each with its own blk, may
// run at once.
func sweepLineMACs(eng *crypt.Engine, tr *tree.Tree, guaddr uint64, data []byte, lineMACs []uint64, blk []byte, lo, hi int) int {
	var (
		ids  [64]uint32
		ctrs [64]uint64
		hash [64]uint64
	)
	for ; lo < hi; lo += len(ids) {
		n := min(len(ids), hi-lo)
		for i := range n {
			ids[i] = uint32(lo + i)
		}
		tr.LeafCounters(lo, ctrs[:n])
		eng.MaskBases(guaddr, crypt.DomainLineMAC, ids[:n], blk)
		eng.MasksFromBases(blk, ctrs[:n])
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
