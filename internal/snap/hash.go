package snap

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"

	"mmt/internal/cursor"
	"mmt/internal/engine"
	"mmt/internal/par"
)

// The state hash — the one value a Save trailer, a store commit record
// and a Manifest pin, and the one every reload must reproduce — is a
// two-level SHA-256 tree over the model rather than a flat hash of its
// encoding, so that a change to a few lines re-hashes a few leaves:
//
//	Hash   = SHA-256(hashTag ‖ SHA-256(elided encoding) ‖ region digest …)
//	region = SHA-256(len(Tree) ‖ len(Data) ‖ len(LineMACs), u64 LE each
//	                 ‖ leaf digest … ‖ SHA-256(Tree))
//	leaf   = SHA-256(groupLines lines of Data ‖ their LineMACs, u64 LE each)
//
// The elided encoding is the canonical mmt-snap/v1 blob with every
// region's Tree, Data and LineMACs left out (codec.elide), so each other
// field is covered by the codec that persists it; region digests follow
// in model order. A plane that is short or long for its neighbours just
// has shorter (or more) leaves: the three lengths fix how every leaf
// splits, so the hash commits to every byte of every plane as the flat
// one did.

// hashTag separates the state hash from any other use of SHA-256.
const hashTag = "mmt-snap/v1 state hash\x00"

// A leaf covers groupLines data lines and their MACs — one byte of the
// engine's dirty-line bitset. 8 is not a tunable: for d dirty lines in a
// 32768-line region a delta re-hashes about d·groupLines·72 bytes of
// leaves plus 32768/groupLines·32 bytes of region digest, which 8
// minimises around the few hundred scattered lines a checkpoint interval
// dirties and which stays small for one.
const (
	groupLines = 8
	groupBytes = groupLines * engine.LineSize
)

// Dirty reports what changed in one region since the state a Hasher last
// summed for it: it calls line for every changed data line in ascending
// order and returns whether any tree node changed.
type Dirty func(machine string, region int, line func(int)) (nodes bool)

// Hasher computes state hashes and keeps each region's leaf, tree and
// region digests between calls, so that Sum re-hashes only what its
// Dirty argument names. The zero value is ready to use.
type Hasher struct {
	regions map[regionKey]*regionDigests
	gen     uint64        // bumped per Sum; marks the regions that Sum saw
	meta    cursor.Writer // reused buffer for the elided encoding
	work    []int         // reused list of the groups to re-hash
}

type regionKey struct {
	machine string
	region  int
}

type regionDigests struct {
	gen    uint64
	lens   [3]int // len(Tree), len(Data), len(LineMACs) the digests describe
	leaves []byte // sha256.Size bytes per group
	tree   [sha256.Size]byte
	sum    [sha256.Size]byte
}

// Hash computes the state hash of m with nothing cached.
func Hash(m *Model) [sha256.Size]byte { return new(Hasher).Sum(m, nil) }

// Sum returns Hash(m), reusing the digests of earlier calls for whatever
// dirty does not name. It is only as good as dirty: every byte of a
// region's planes that differs from what the previous Sum saw under the
// same machine and region index must be reported, or the region's planes
// must have changed length. A nil dirty, or a region the Hasher has not
// seen, recomputes everything. Digests of regions absent from m are
// dropped.
func (h *Hasher) Sum(m *Model, dirty Dirty) [sha256.Size]byte {
	if h.regions == nil {
		h.regions = make(map[regionKey]*regionDigests)
	}
	h.gen++
	h.meta.Buf = h.meta.Buf[:0]
	c := codec{Codec: &cursor.Codec{W: &h.meta}, elide: true}
	c.model(m)
	meta := sha256.Sum256(h.meta.Buf)

	top := sha256.New()
	top.Write([]byte(hashTag))
	top.Write(meta[:])
	for i := range m.Machines {
		mm := &m.Machines[i]
		for j := range mm.Regions {
			top.Write(h.region(mm.Name, &mm.Regions[j], dirty))
		}
	}
	for k, e := range h.regions {
		if e.gen != h.gen {
			delete(h.regions, k)
		}
	}
	var sum [sha256.Size]byte
	top.Sum(sum[:0])
	return sum
}

// region returns r's digest, re-hashing the groups dirty names (all of
// them when nothing usable is cached) and the tree if a node changed.
func (h *Hasher) region(machine string, r *Region, dirty Dirty) []byte {
	key := regionKey{machine, r.Index}
	lens := [3]int{len(r.Tree), len(r.Data), len(r.LineMACs)}
	e := h.regions[key]
	cached := dirty != nil && e != nil && e.lens == lens
	if e == nil {
		e = &regionDigests{}
		h.regions[key] = e
	}
	e.gen = h.gen

	work, nodes := h.work[:0], true
	if cached {
		nodes = dirty(machine, r.Index, func(line int) {
			if g := line / groupLines; len(work) == 0 || work[len(work)-1] != g {
				work = append(work, g)
			}
		})
	} else {
		groups := max((lens[1]+groupBytes-1)/groupBytes, (lens[2]+groupLines-1)/groupLines)
		e.lens, e.leaves = lens, make([]byte, groups*sha256.Size)
		for g := range groups {
			work = append(work, g)
		}
	}
	h.work = work
	if !nodes && len(work) == 0 {
		return e.sum[:]
	}

	hashLeaves(r, e.leaves, work)
	if nodes {
		e.tree = sha256.Sum256(r.Tree)
	}
	d := sha256.New()
	var lb [3 * 8]byte
	for i, n := range lens {
		binary.LittleEndian.PutUint64(lb[i*8:], uint64(n))
	}
	d.Write(lb[:])
	d.Write(e.leaves)
	d.Write(e.tree[:])
	d.Sum(e.sum[:0])
	return e.sum[:]
}

// hashLeaves recomputes the leaf digests of the listed groups of r into
// their slots of leaves, cut into contiguous chunks, one per available
// processor (the plain loop with one, as engine's sweepLines). Every
// leaf is a function of r alone and lands in its own slot, so the result
// does not depend on the processor count.
func hashLeaves(r *Region, leaves []byte, groups []int) {
	workers := min(runtime.GOMAXPROCS(0), len(groups))
	if workers <= 1 {
		hashLeafRun(r, leaves, groups)
		return
	}
	chunks := make([][]int, workers)
	for i := range chunks {
		chunks[i] = groups[i*len(groups)/workers : (i+1)*len(groups)/workers]
	}
	_ = par.ForEach(workers, chunks, func(_ int, chunk []int) error { // the work cannot fail
		hashLeafRun(r, leaves, chunk)
		return nil
	})
}

// hashLeafRun is hashLeaves' loop: it reads r and writes only the listed
// groups' slots, so runs over disjoint lists may go on at once.
func hashLeafRun(r *Region, leaves []byte, groups []int) {
	var buf [groupBytes + groupLines*8]byte
	for _, g := range groups {
		n := copy(buf[:], r.Data[min(g*groupBytes, len(r.Data)):min((g+1)*groupBytes, len(r.Data))])
		for _, mac := range r.LineMACs[min(g*groupLines, len(r.LineMACs)):min((g+1)*groupLines, len(r.LineMACs))] {
			binary.LittleEndian.PutUint64(buf[n:], mac)
			n += 8
		}
		leaf := sha256.Sum256(buf[:n])
		copy(leaves[g*sha256.Size:], leaf[:])
	}
}
