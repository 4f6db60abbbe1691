// Package engine implements the MMT controller of §V-A2: the memory
// controller extension that divides physical memory into normal memory,
// secure memory and the MMT meta-zone, verifies and updates the
// counter-based integrity tree on every secure access, caches tree nodes
// on chip, and accounts simulated cycles against a sim.Profile.
//
// The controller is purely single-node; the migratable parts of the scheme
// (root states, closures, delegation) live in package core and drive the
// controller through Export/Install and SetMode.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"mmt/internal/crypt"
	"mmt/internal/mem"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// Mode is the access mode the controller enforces for one secure region.
// It is the hardware-visible projection of the MMT state machine: valid ->
// ModeReadWrite, sending/read-only -> ModeReadOnly, invalid/waiting ->
// ModeDisabled. The modes of all regions are §V-A2's "bitmap which records
// the type of physical memory": a disabled region is normal memory.
type Mode uint8

const (
	// ModeDisabled: no MMT active; the region is normal memory to the
	// controller and secure accesses fail.
	ModeDisabled Mode = iota
	// ModeReadWrite: MMT valid; reads verify, writes update the tree.
	ModeReadWrite
	// ModeReadOnly: MMT in sending or received-read-only state; writes are
	// rejected ("the content in this memory range cannot be modified").
	ModeReadOnly
)

func (m Mode) String() string {
	switch m {
	case ModeDisabled:
		return "disabled"
	case ModeReadWrite:
		return "read-write"
	case ModeReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Controller errors.
var (
	ErrDisabled  = errors.New("engine: region has no valid MMT")
	ErrReadOnly  = errors.New("engine: region is read-only (MMT sending or received read-only)")
	ErrIntegrity = tree.ErrIntegrity
	ErrBusy      = errors.New("engine: region already has an MMT")
)

// Stats counts controller activity; the Figure 11 experiment reads these.
type Stats struct {
	Reads, Writes    uint64
	NodeHits         uint64
	NodeMisses       uint64
	RootMounts       uint64
	DataAccesses     uint64
	ReencryptedLines uint64
	Cycles           sim.Cycles
}

// regionState is the controller-side state of one protection region.
type regionState struct {
	mode     Mode
	eng      *crypt.Engine
	tr       *tree.Tree
	guaddr   uint64
	lineMACs []uint64
	// dirtyLines is a preallocated bitset of data lines mutated since the
	// last checkpoint commit; together with the tree's dirty-node bits it
	// drives the mmt-store/v1 delta stream and tells the snapshot hasher
	// which cached digests are stale. Marked on the hot write path (pure
	// bit arithmetic, no allocation).
	//
	// The rule both consumers rest on: every mutation of the region's
	// ciphertext or line MACs marks the line (markLines), every mutation of
	// a tree node marks the node (tree.markDirty), a region bound by
	// bindRegion starts with everything marked, and only ClearRegionDirty
	// clears — so a clear bit means "unchanged since the last durable
	// checkpoint".
	dirtyLines []uint64
	linePlanes
}

// linePlanes are a region's per-line AES caches: one record per line,
// "keys derived at counter c". The two-block tweak PRF's first block (the
// "base") depends only on (guaddr, line, domain), so both bases are computed
// once, on the line's first touch; the 64-byte OTP pad and the
// DomainLineMAC mask are then derived from the cached bases and memoised
// under the counter they were derived at. A read never bumps the counter, so
// re-reads of a line reduce to MAC check + XOR with zero AES work, and a
// write (which derives the new keys anyway) refreshes the record for the
// read-after-write that typically follows. Everything here is a pure
// function of (engine, guaddr, line[, counter]) — replaying it is
// bit-identical to recomputation, so tamper detection is unaffected.
//
// The two byte planes are laid out as crypt.LineBases and crypt.LineKeys
// write them — per line, its two bases side by side and its pad followed by
// its mask block — so the records of consecutive lines are consecutive AES
// blocks: each PRF level of a whole run of lines is derived in place by one
// multi-block call, with no staging and no copy. (An 80-byte record puts
// three pads in four across two cache lines. Pads in a plane of their own
// were measured: a random warm read 1 % faster, a random write 2 % slower
// for the second AES call, both inside the noise; the one record stayed.)
//
// One validity bit per line suffices: keyRun is the only writer and always
// leaves bases, mask, pad and counter of a line consistent, so the bit means
// "this line's record is whole". It is also what makes a plane set
// recyclable across regions, keys and addresses (Controller.bindRegion):
// with the one bitset cleared, whatever the planes still hold is
// unreachable.
type linePlanes struct {
	bases   []byte // crypt.LineBasesSize bytes per line: DomainPad base, DomainLineMAC base
	keys    []byte // crypt.LineKeysSize bytes per line: the OTP keystream, then the mask block, at lineCtr
	lineCtr []uint64
	lineOK  []uint64 // bitset: the line's record is valid
}

// setBits sets the n bits of set starting at bit lo, a word at a time.
func setBits(set []uint64, lo, n int) {
	for end := lo + n; lo < end; {
		next := min((lo|63)+1, end)
		set[lo>>6] |= ^uint64(0) >> (64 - uint(next-lo)) << (uint(lo) & 63)
		lo = next
	}
}

// firstClear reports the offset from lo of the first clear bit among the n
// bits of set starting at bit lo, or n when all of them are set.
func firstClear(set []uint64, lo, n int) int {
	for i := lo; i < lo+n; i = (i | 63) + 1 {
		// The word's clear bits as ones, bit i lowest; the zeros shifted in
		// on top stand for bits of the next word.
		if w := ^set[i>>6] >> (uint(i) & 63); w != 0 {
			return min(i+bits.TrailingZeros64(w)-lo, n)
		}
	}
	return n
}

// markLines flags the n lines starting at line as dirty for the checkpoint
// stream.
func (st *regionState) markLines(line, n int) { setBits(st.dirtyLines, line, n) }

// newLinePlanes sizes the per-line planes with nothing valid. Records fill
// lazily (keyRun) on first touch of each line, so a migration install —
// which verifies every line but may never read most of them again — does
// not pay AES blocks per line up front.
func newLinePlanes(lines int) linePlanes {
	return linePlanes{
		bases:   make([]byte, lines*crypt.LineBasesSize),
		keys:    make([]byte, lines*crypt.LineKeysSize),
		lineCtr: make([]uint64, lines),
		lineOK:  make([]uint64, (lines+63)/64),
	}
}

// keyRun brings the key records of the n >= 1 lines starting at line — a
// leaf run, or the 64-line group of a sweep — to the counters the tree
// holds for them, after which the caller indexes the keys plane directly:
// line l's pad is keys[l*crypt.LineKeysSize:][:LineSize] and its line-MAC
// mask crypt.Mask of the block behind it, valid until the next keyRun over
// the line. One stepped pass over the run's leaf counters and validity
// bits finds the first line whose record is missing or was derived at
// another counter; the records from there to the run's end — as stale (a
// cold run, or one whose counters tree.UpdateRun has just fixed), and
// their blocks independent — are re-derived in two multi-block AES calls,
// 2 blocks a line of bases if any of them is on its first touch and 5 of
// keys. A warm run costs the pass and no AES. Every use compares the
// record's counter with the tree's, so a record is used only while the
// line's counter is still the one it was derived at (an overflow that
// resets a sibling's counter makes its record miss).
func (st *regionState) keyRun(line, n int) {
	ctrs := st.lineCtr[line : line+n]
	valid := firstClear(st.lineOK, line, n)
	stale := min(st.tr.LeafCounters(line, ctrs), valid)
	if stale == n {
		return
	}
	bases := st.bases[(line+stale)*crypt.LineBasesSize : (line+n)*crypt.LineBasesSize]
	if valid < n { // a line at or after stale is on its first touch
		st.eng.LineBases(st.guaddr, uint32(line+stale), bases)
		setBits(st.lineOK, line+stale, n-stale)
	}
	st.eng.LineKeys(bases, ctrs[stale:], st.keys[(line+stale)*crypt.LineKeysSize:(line+n)*crypt.LineKeysSize])
}

// runKeys is the keys-plane stretch of the n lines starting at line: what
// crypt.SealLines and crypt.OpenLines read once keyRun has covered them.
func (st *regionState) runKeys(line, n int) []byte {
	return st.keys[line*crypt.LineKeysSize : (line+n)*crypt.LineKeysSize]
}

// sealGroups keys lines [lo, hi) at the counters the tree holds for them
// and encrypts and MACs them into data and the line-MAC plane, a 64-line
// group per keyRun and crypt.SealLines call; line l's plaintext is
// src[(l-lo)*mem.LineSize:]. src may be the lines' own bytes (Enable).
func (st *regionState) sealGroups(data, src []byte, lo, hi int) {
	for g := lo; g < hi; g = groupEnd(g, hi) {
		n := groupEnd(g, hi) - g
		st.keyRun(g, n)
		st.eng.SealLines(data[g*mem.LineSize:(g+n)*mem.LineSize], src[(g-lo)*mem.LineSize:], st.runKeys(g, n), st.lineMACs[g:g+n])
	}
}

// Controller is one node's MMT-extended memory controller.
type Controller struct {
	mem     *mem.Memory
	geo     tree.Geometry
	clock   *sim.Clock
	prof    *sim.Profile
	lay     tree.Layout // geo's products: node keys, node sizes, line and byte counts
	cache   *lru        // tree nodes, keyed (region, flat node index), in bytes
	roots   *lru        // mounted roots, keyed (region, 0), in entries
	regions []regionState
	// pathFits: the nodes of one tree path fit the node cache together, so
	// the further lines of a leaf run hit at every level (chargeRest).
	pathFits bool
	stats    Stats
	quiet    bool
	probe    *trace.Probe // nil = tracing disabled
	// causal is the causal context the channel/monitor layer installs
	// around a closure accept, so the functional Install lands as a child
	// span of the accept (zero when no migration is in progress).
	causal trace.Context
	scr    crypt.Scratch
	// planePool keeps the line planes of invalidated regions for the next
	// Enable or Install, which would otherwise allocate and zero ~3.9 MB
	// per 2 MB region. Per controller, not package-level: controllers of
	// different clusters run concurrently. A set is only ever made when
	// the pool is empty, so live and pooled sets together never outnumber
	// the regions.
	planePool []linePlanes
}

// New builds a controller over m with the given tree geometry. The
// memory's region size must equal the geometry's protected data size, and
// its meta-zone must fit the serialized tree plus line MACs.
func New(m *mem.Memory, geo tree.Geometry, clock *sim.Clock, prof *sim.Profile) (*Controller, error) {
	lay, err := geo.Layout()
	if err != nil {
		return nil, err
	}
	if m.Config().RegionSize != lay.DataSize {
		return nil, fmt.Errorf("engine: region size %d != tree data size %d",
			m.Config().RegionSize, lay.DataSize)
	}
	if m.Config().MetaPerRegion < lay.MetaSize {
		return nil, fmt.Errorf("engine: meta-zone %d bytes/region < required %d",
			m.Config().MetaPerRegion, lay.MetaSize)
	}
	if clock == nil {
		clock = sim.NewClock(prof.FreqHz)
	}
	cache, pathBytes := newLRU(prof.MMTCacheBytes, lay.Nodes, false), 0
	for _, lv := range lay.Level {
		pathBytes += lv.NodeSize
	}
	return &Controller{
		mem:     m,
		geo:     geo,
		lay:     lay,
		clock:   clock,
		prof:    prof,
		cache:   cache,
		roots:   newLRU(prof.RootTableSoC/rootEntryBytes, 1, true),
		regions: make([]regionState, m.Regions()),
		// From the table's own capacity, not prof: ablations mutate prof.
		pathFits: pathBytes <= cache.capacity,
	}, nil
}

// Geometry reports the controller's tree geometry.
func (c *Controller) Geometry() tree.Geometry { return c.geo }

// DataSize reports the protected bytes of one region: the bound every span
// check compares against.
func (c *Controller) DataSize() int { return c.lay.DataSize }

// Memory reports the underlying physical memory.
func (c *Controller) Memory() *mem.Memory { return c.mem }

// Clock reports the node clock the controller advances.
func (c *Controller) Clock() *sim.Clock { return c.clock }

// Profile reports the cost model in use.
func (c *Controller) Profile() *sim.Profile { return c.prof }

// Stats returns a snapshot of the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetQuiet suspends cycle and stats accounting while q is true. The
// channel layer uses it when extracting received payloads: every mode's
// application reads its received data, and none of the channels charges
// that uniform cost, so charging only the MMT read path would bias the
// comparison.
func (c *Controller) SetQuiet(q bool) { c.quiet = q }

// ResetStats zeroes the activity counters (cycles included).
func (c *Controller) ResetStats() { c.stats = Stats{} }

// SetTrace attaches a trace probe to the controller and to every live
// tree. A nil probe disables tracing; the instrumented paths then cost
// one branch and zero allocations per call site.
func (c *Controller) SetTrace(p *trace.Probe) {
	c.probe = p
	for i := range c.regions {
		if c.regions[i].tr != nil {
			c.regions[i].tr.SetTrace(p)
		}
	}
}

// Trace reports the controller's probe (nil when tracing is disabled).
// Components sharing the machine (monitor, channels) reuse it so all of
// a node's activity lands under one trace process.
func (c *Controller) Trace() *trace.Probe { return c.probe }

// SetCausal installs the causal context under which the next Install
// records its span; the zero Context disables it. The channel/monitor
// layer brackets each closure accept with SetCausal/clear.
func (c *Controller) SetCausal(ctx trace.Context) { c.causal = ctx }

// Mode reports region r's access mode.
func (c *Controller) Mode(r int) Mode { return c.region(r).mode }

// RootCounter reports region r's trusted root counter.
func (c *Controller) RootCounter(r int) uint64 { return c.region(r).tr.RootCounter() }

// Tree exposes region r's integrity tree for inspection (tests, closures).
func (c *Controller) Tree(r int) *tree.Tree { return c.region(r).tr }

func (c *Controller) region(r int) *regionState {
	if r < 0 || r >= len(c.regions) {
		// internal bounds guard, equivalent to built-in slice indexing
		panic(fmt.Sprintf("engine: region %d out of range [0,%d)", r, len(c.regions)))
	}
	return &c.regions[r]
}

// lineAddr converts (region, line) to a physical line address.
func (c *Controller) lineAddr(r, line int) mem.Addr {
	return c.mem.RegionBase(r) + mem.Addr(line*mem.LineSize)
}

// Enable turns region r into secure memory under key with the given
// global-unique address and initial root counter. Existing region contents
// are treated as plaintext and encrypted in place, line by line.
func (c *Controller) Enable(r int, key crypt.Key, guaddr, rootCounter uint64) error {
	st := c.region(r)
	if st.mode != ModeDisabled {
		return ErrBusy
	}
	eng := crypt.NewEngine(key)
	tr, err := tree.New(c.geo, eng, guaddr)
	if err != nil {
		return err
	}
	tr.SetTrace(c.probe)
	tr.SetRootCounter(rootCounter)
	tr.RehashAll(eng, guaddr)
	c.bindRegion(r, regionState{mode: ModeReadWrite, eng: eng, tr: tr, guaddr: guaddr, lineMACs: make([]uint64, c.lay.Lines), linePlanes: c.takePlanes()})
	// The write path's kernels, a 64-line group at a time: keyed, then
	// encrypted in place and MACed.
	data := c.mem.RegionData(r)
	c.sweepLines(func(lo, hi int) int {
		st.sealGroups(data, data[lo*mem.LineSize:], lo, hi)
		return -1
	})
	return nil
}

// takePlanes returns a set of line planes with nothing valid: recycled
// from planePool when an invalidated region left one, so only the validity
// bitset is reset, else a new set. It belongs to the caller until it binds
// it to a region or hands it back to the pool.
func (c *Controller) takePlanes() linePlanes {
	n := len(c.planePool)
	if n == 0 {
		return newLinePlanes(c.lay.Lines)
	}
	p := c.planePool[n-1]
	c.planePool[n-1] = linePlanes{}
	c.planePool = c.planePool[:n-1]
	clear(p.lineOK)
	return p
}

// bindRegion makes st, whose line planes come from takePlanes, the live
// state of the disabled region r: it adds an all-dirty line bitset —
// neither freshly encrypted nor transferred contents have been
// checkpointed here — then drops the node cache's entries for it.
func (c *Controller) bindRegion(r int, st regionState) {
	lines := c.lay.Lines
	st.dirtyLines = make([]uint64, (lines+63)/64)
	st.markLines(0, lines) // whole words, and no bit past the last line
	c.regions[r] = st
	c.cache.invalidateRegion(r)
}

// Invalidate drops region r's MMT without decrypting: the memory reverts
// to normal but holds ciphertext garbage. This is the sender-side
// transition sending -> invalid after an ownership-transfer delegation,
// and the only teardown: freeing a buffer ends here too, so memory that
// returns to the normal pool never holds plaintext. The region's line
// planes go to planePool; its line MACs do not, because a closure built
// by Export may still be reading them.
func (c *Controller) Invalidate(r int) {
	st := c.region(r)
	if st.mode != ModeDisabled {
		c.planePool = append(c.planePool, st.linePlanes)
	}
	*st = regionState{}
	c.cache.invalidateRegion(r)
	c.roots.invalidateRegion(r)
}

// SetMode changes region r's enforcement mode (driven by the MMT state
// machine in package core).
func (c *Controller) SetMode(r int, m Mode) error {
	st := c.region(r)
	if st.mode == ModeDisabled && m != ModeDisabled {
		return ErrDisabled
	}
	st.mode = m
	return nil
}

// chargePath advances the clock for one tree-path traversal. The cost
// model follows §II-A and §VI-B:
//
//   - The data line always costs one DRAM access plus the OTP XOR (the
//     only crypto on the critical path; OTP generation overlaps the
//     fetch).
//   - Every tree level issues a meta request that occupies read/write
//     queue slots whether it hits or misses — the paper's explanation for
//     deeper trees being slower ("extra tree node accesses ... occupy the
//     read/write queue and tree node cache").
//   - A node-cache hit is an already-verified on-chip copy: no MAC work.
//   - The first (deepest) miss is issued in parallel with the data fetch,
//     exposing only part of its latency; each further miss on the same
//     path extends the serial verification chain and exposes most of a
//     DRAM access plus the MAC check.
//
// The cost is charged per phase (data / root-mount / tree-walk / MAC),
// each phase once, so the trace layer reports the breakdown and the clock
// moves by exactly the phases' sum.
//
// It returns the total charged cycles and the verification share (root
// mount + MAC checks) so callers can mirror the same numbers into the
// per-operation latency histograms. Both are 0 in quiet mode.
func (c *Controller) chargePath(r, line int, extraNodes int) (total, verify sim.Cycles) {
	if c.quiet {
		return 0, 0
	}
	dataCost := c.prof.DRAMAccess + 2 // data line + OTP XOR
	c.stats.DataAccesses++
	var rootCost, walkCost, macCost sim.Cycles
	if !c.roots.touch(r, 0, 1) {
		// Penglai-style root mount: the region's root counter is loaded
		// into the SoC root table, verified against the sealed copy.
		c.stats.RootMounts++
		c.probe.Count(trace.CtrRootMounts, 1)
		rootCost = c.prof.DRAMAccess + c.prof.MACLatency
	}
	misses := 0
	for l := range c.lay.Level {
		walkCost += queuePerLevel
		if c.cache.touch(r, c.lay.NodeAt(l, line), c.lay.Level[l].NodeSize) {
			c.stats.NodeHits++
			c.probe.Count(trace.CtrNodeCacheHits, 1)
			continue
		}
		c.stats.NodeMisses++
		c.probe.Count(trace.CtrNodeCacheMisses, 1)
		c.probe.Count(trace.CtrMACVerifies, 1)
		misses++
		if misses == 1 {
			walkCost += c.prof.DRAMAccess * firstMissExposure
		} else {
			walkCost += c.prof.DRAMAccess * chainMissExposure
		}
		macCost += c.prof.MACLatency
	}
	c.probe.Count(trace.CtrTreeNodeWalks, uint64(len(c.lay.Level)))
	if extraNodes > 0 {
		macCost += sim.Cycles(extraNodes) * c.prof.MACLatency
		c.probe.Count(trace.CtrMACUpdates, uint64(extraNodes))
	}
	c.charge(trace.PhaseData, dataCost)
	c.charge(trace.PhaseRootMount, rootCost)
	c.charge(trace.PhaseTreeWalk, walkCost)
	c.charge(trace.PhaseMAC, macCost)
	return dataCost + rootCost + walkCost + macCost, rootCost + macCost
}

// charge books n cycles of phase ph to Stats, the probe's phase total and
// the clock. A zero charge (a warm read mounts no root and checks no MAC)
// changes none of them and is skipped.
func (c *Controller) charge(ph trace.Phase, n sim.Cycles) {
	if n != 0 {
		c.stats.Cycles += n
		c.probe.Charge(c.clock, ph, n)
	}
}

// recordAccess mirrors n accesses' charged cycles, each the same, into the
// per-op latency histograms: the whole access under op, the verification
// share additionally under OpVerify. Quiet-mode accesses charge nothing
// and arrive here as zeros, recording nothing.
func (c *Controller) recordAccess(op trace.Op, total, verify sim.Cycles, n uint64) {
	if total > 0 {
		c.probe.RecordOp(op, total, n)
	}
	if verify > 0 {
		c.probe.RecordOp(trace.OpVerify, verify, n)
	}
}

// chargeRest charges and records the k lines starting at line as the
// further lines of a leaf run whose first line chargePath has just charged,
// and leaves Stats, the clock, every trace accumulator and both lru tables
// exactly as k more chargePath + recordAccess pairs in line order would.
// The lines of a run share all L path nodes, so when a path fits the node
// cache (pathFits) the first line left the root mounted and all L nodes
// resident at the head of the recency list, in path order; every further
// line would touch the same L nodes in the same order, hit each time, and
// splice them back where they already are. Its charge is therefore the
// all-hit arithmetic — no mount, L hits, no miss, the data line, L queue
// slots and the caller's extraNodes MAC updates — with no table touched,
// charged in one step: k times each phase cost, counter and histogram
// sample (small integers on a cycle clock, so equal to k single charges
// bit for bit). Two cases go line by line through chargePath instead: a
// path that does not fit, whose hit pattern is the lru's to say, and a
// run inside which a sampling window boundary falls, so that the window
// hook sees the accumulators as they stand at the crossing line.
func (c *Controller) chargeRest(op trace.Op, r, line, k, extraNodes int) {
	if c.quiet || k <= 0 {
		return
	}
	levels := uint64(len(c.lay.Level))
	dataCost := c.prof.DRAMAccess + 2
	walkCost := sim.Cycles(levels) * queuePerLevel
	macCost := sim.Cycles(extraNodes) * c.prof.MACLatency
	cost := dataCost + walkCost + macCost
	if !c.pathFits || c.clock.Crosses(sim.Cycles(k)*cost) {
		for ; k > 0; line, k = line+1, k-1 {
			total, verify := c.chargePath(r, line, extraNodes)
			c.recordAccess(op, total, verify, 1)
		}
		return
	}
	n := uint64(k)
	c.stats.DataAccesses += n
	c.stats.NodeHits += n * levels
	c.probe.Count(trace.CtrNodeCacheHits, n*levels)
	c.probe.Count(trace.CtrTreeNodeWalks, n*levels)
	if extraNodes > 0 {
		c.probe.Count(trace.CtrMACUpdates, n*uint64(extraNodes))
	}
	c.charge(trace.PhaseData, sim.Cycles(k)*dataCost)
	c.charge(trace.PhaseTreeWalk, sim.Cycles(k)*walkCost)
	c.charge(trace.PhaseMAC, sim.Cycles(k)*macCost)
	c.recordAccess(op, cost, macCost, n)
}

// checkSpan refuses a span of n bytes starting at line that is not a whole
// number of lines inside the region.
func (c *Controller) checkSpan(line, n int) error {
	if line < 0 || n%mem.LineSize != 0 || n/mem.LineSize > c.lay.Lines-line {
		return fmt.Errorf("engine: span of %d bytes at line %d is not whole lines within [0,%d)", n, line, c.lay.Lines)
	}
	return nil
}

// Timing-model constants for the tree walk (see chargePath), and the SoC
// storage per mounted MMT root (Table V's root-size accounting: an 8-byte
// counter).
const (
	rootEntryBytes                 = 8
	queuePerLevel       sim.Cycles = 8
	writeUpdatePerLevel sim.Cycles = 12
	firstMissExposure              = 0.35 // overlapped with the data fetch
	chainMissExposure              = 0.80 // serial extension of the chain
)

// access returns region r's state for an access to the n bytes starting at
// line, refusing — before anything is counted — a disabled region, a write
// to a read-only one, and a span that is not whole lines inside the region.
func (c *Controller) access(r, line, n int, write bool) (*regionState, error) {
	st := c.region(r)
	switch {
	case st.mode == ModeDisabled:
		return nil, ErrDisabled
	case write && st.mode == ModeReadOnly:
		return nil, ErrReadOnly
	}
	if err := c.checkSpan(line, n); err != nil {
		return nil, err
	}
	return st, nil
}

// ReadInto verifies and decrypts the given line of secure region r into
// dst (mem.LineSize bytes): ReadRange over one line, never pipelined.
func (c *Controller) ReadInto(r, line int, dst []byte) error {
	dst = dst[:mem.LineSize]
	st, err := c.access(r, line, len(dst), false)
	if err != nil {
		return err
	}
	_, err = c.readRuns(st, r, line, line+1, dst, line+1)
	return err
}

// ReadRange verifies and decrypts len(dst)/mem.LineSize consecutive lines
// of secure region r, starting at line, into dst. A span that is not whole
// lines inside the region is refused before anything is counted. A span of
// one pipe chunk (newPipe), or any span on one processor, is readRuns
// alone. A longer one is read as a pipeline of three stages per chunk:
// helpers key the chunks' lines and check their MACs without decrypting
// them, in chunk order and ahead of the loop; readRuns does the accounting
// and path verification chunk by chunk, on the caller and in line order,
// taking each run's verdict from the check; and once it has verified a
// chunk a goroutine decrypts into dst the lines it verified, and only
// those. A failing read thus leaves dst untouched from the failing line
// on, and no line is decrypted before its path has verified (DESIGN.md
// §17, "The span pipeline").
func (c *Controller) ReadRange(r, line int, dst []byte) error {
	st, err := c.access(r, line, len(dst), false)
	if err != nil {
		return err
	}
	end := line + len(dst)/mem.LineSize
	p := newPipe(line, end, c.lay.Level[len(c.lay.Level)-1].Arity)
	if p == nil {
		_, err := c.readRuns(st, r, line, end, dst, end)
		return err
	}
	data := c.mem.RegionData(r)
	p.ahead(func(lo, hi int) int {
		for g := lo; g < hi; g = groupEnd(g, hi) {
			n := groupEnd(g, hi) - g
			st.keyRun(g, n)
			if good := st.eng.CheckLines(data[g*mem.LineSize:(g+n)*mem.LineSize], st.runKeys(g, n), st.lineMACs[g:g+n]); good < n {
				return g + good
			}
		}
		return -1
	})
	decrypt := func(lo, hi int) {
		for g := lo; g < hi; g = groupEnd(g, hi) {
			next := groupEnd(g, hi)
			crypt.XORLines(dst[(g-line)*mem.LineSize:(next-line)*mem.LineSize], data[g*mem.LineSize:], st.runKeys(g, next-g))
		}
	}
	defer p.wait()
	for k := range p.chunks {
		lo, hi := p.cut(k)
		bad := p.await(k)
		if bad < 0 {
			bad = hi
		}
		verified, err := c.readRuns(st, r, lo, hi, nil, bad)
		p.behind(lo, verified, decrypt)
		if err != nil {
			return err
		}
	}
	return nil
}

// readRuns is ReadRange's loop over the lines [line, end). The unit of work
// is the leaf run — the lines of the span that share one leaf node, hence
// one whole path; a single line is a run of one. Per run the tree path is
// verified once, at the run's first line: nothing but this controller
// writes the tree arena inside one call and a read moves no counter, so the
// verification a line-by-line loop would repeat for each further line is
// the same computation on the same words. With a dst, the run's keys are
// then checked in one pass (keyRun) and its lines MAC-checked and decrypted
// into dst in one kernel call (crypt.OpenLines), which stops at the first
// bad MAC. With dst nil, the pipe's check stage has keyed and checked the
// lines ahead and bad is the lowest line that failed (end when none did),
// and a stage behind the loop decrypts what it verified. The crypto
// touches nothing an observer sees, so the order between it and the
// accounting is free: every line up to and including the bad one, as a
// line-by-line loop would have reached it, is counted, charged and
// recorded (chargeRest) before the ledger event. It returns where it
// stopped — end, or the line whose path or MAC failed — and performs zero
// heap allocations (TestReadWriteZeroAlloc), matching the hardware data
// path it models.
func (c *Controller) readRuns(st *regionState, r, line, end int, dst []byte, bad int) (int, error) {
	leafArity := c.lay.Level[len(c.lay.Level)-1].Arity
	data := c.mem.RegionData(r)
	for n := 0; line < end; line += n {
		c.stats.Reads++
		total, verify := c.chargePath(r, line, 0)
		c.recordAccess(trace.OpLocalRead, total, verify, 1)
		if err := st.tr.VerifyPath(st.eng, st.guaddr, line); err != nil {
			c.probe.Event(trace.EvIntegrityFail, c.clock.Now(), st.guaddr, "read: tree path")
			return line, err
		}
		n = min(leafArity-line%leafArity, end-line)
		good := min(bad-line, n)
		if dst != nil {
			st.keyRun(line, n)
			good = st.eng.OpenLines(dst[:n*mem.LineSize], data[line*mem.LineSize:(line+n)*mem.LineSize], st.runKeys(line, n), st.lineMACs[line:line+n])
			dst = dst[n*mem.LineSize:]
		}
		// The run's further lines a line-by-line loop would have reached:
		// all of them, or those up to and including the bad one.
		reached := min(good, n-1)
		c.stats.Reads += uint64(reached)
		c.chargeRest(trace.OpLocalRead, r, line+1, reached, 0)
		if good < n {
			c.probe.Event(trace.EvIntegrityFail, c.clock.Now(), st.guaddr, "read: data line MAC")
			return line + good, fmt.Errorf("%w: data line %d", ErrIntegrity, line+good)
		}
	}
	return end, nil
}

// Write verifies the path, advances the counters and stores the encrypted
// line: WriteRange over one line, never pipelined.
func (c *Controller) Write(r, line int, plaintext []byte) error {
	plaintext = plaintext[:mem.LineSize]
	st, err := c.access(r, line, len(plaintext), true)
	if err != nil {
		return err
	}
	_, err = c.writeRuns(st, r, line, line+1, plaintext, false)
	return err
}

// WriteRange stores len(src)/mem.LineSize consecutive plaintext lines of
// secure region r, starting at line. A span that is not whole lines inside
// the region is refused before anything is counted. A span of one pipe
// chunk (newPipe), or any span on one processor, is writeRuns alone,
// sealing each run as it goes. A longer one has its line crypto deferred
// and pipelined: writeRuns verifies, updates and charges run by run, on the
// caller, a chunk at a time, and a goroutine then keys and seals the lines
// of the chunk it passed while the loop goes on to the next — also when it
// stopped at a failed path verification, so that the runs before it stay
// written (DESIGN.md §17).
func (c *Controller) WriteRange(r, line int, src []byte) error {
	st, err := c.access(r, line, len(src), true)
	if err != nil {
		return err
	}
	end := line + len(src)/mem.LineSize
	p := newPipe(line, end, c.lay.Level[len(c.lay.Level)-1].Arity)
	if p == nil {
		_, err := c.writeRuns(st, r, line, end, src, false)
		return err
	}
	data := c.mem.RegionData(r)
	seal := func(lo, hi int) {
		st.sealGroups(data, src[(lo-line)*mem.LineSize:], lo, hi)
	}
	stop := line
	for k := 0; k < p.chunks && err == nil; k++ {
		lo, hi := p.cut(k)
		stop, err = c.writeRuns(st, r, lo, hi, src[(lo-line)*mem.LineSize:], true)
		p.behind(lo, stop, seal)
	}
	p.wait()
	st.markLines(line, stop-line)
	return err
}

// writeRuns is WriteRange's loop over the lines [line, end). At a run's
// first line the path is verified — the tree engine "checks data integrity
// before writing", and here before any counter of the run moves — and
// tree.UpdateRun then advances the counters for every line of the run and
// re-MACs each path node once. A line-by-line loop would verify, between
// two lines of the run, exactly the node MACs it had itself just written,
// and would re-MAC the path after every line though only the last result
// survives. The run's lines are then charged (chargeRest) and, unless
// deferSeal, keyed at their final counters (keyRun) and encrypted, stored
// and MACed where they lie in one kernel call (crypt.SealLines); memory,
// line MACs, the tree, the dirty sets, Stats and the clock end
// bit-identical to the loop's.
//
// When a counter on the path would overflow within the run, the run's
// first line advances alone through tree.Update, whose overflow procedure
// re-encrypts the sibling lines (§V-A2's global-counter exhaustion), and
// the remaining lines start a new run. A line written alone is sealed at
// once even with deferSeal: the siblings an overflow re-encrypts lie under
// its own leaf, the overflowing line starts its run, so the leaf's earlier
// lines in the span were each written alone — none is pending when
// reencryptLine reads its ciphertext. It returns where it stopped: end, or
// the line whose path or overflow re-encryption failed.
func (c *Controller) writeRuns(st *regionState, r, line, end int, src []byte, deferSeal bool) (int, error) {
	leafArity := c.lay.Level[len(c.lay.Level)-1].Arity
	data := c.mem.RegionData(r)
	for n := 0; line < end; line, src = line+n, src[n*mem.LineSize:] {
		c.stats.Writes++
		if err := st.tr.VerifyPath(st.eng, st.guaddr, line); err != nil {
			c.probe.Event(trace.EvIntegrityFail, c.clock.Now(), st.guaddr, "write: tree path")
			return line, err
		}
		n = min(leafArity-line%leafArity, end-line)
		// touched is the node re-MACs each line of the run is charged for.
		touched := len(c.lay.Level)
		var reencrypt []int
		alone := !st.tr.UpdateRun(st.eng, st.guaddr, line, n)
		if alone {
			res := st.tr.Update(st.eng, st.guaddr, line)
			n, touched, reencrypt = 1, res.NodesTouched, res.ReencryptLines
		}
		total, verify := c.chargePath(r, line, touched)
		c.recordAccess(trace.OpLocalWrite, total, verify, 1)
		c.stats.Writes += uint64(n - 1)
		c.chargeRest(trace.OpLocalWrite, r, line+1, n-1, touched)
		if !deferSeal || alone {
			st.keyRun(line, n)
			st.eng.SealLines(data[line*mem.LineSize:(line+n)*mem.LineSize], src[:n*mem.LineSize], st.runKeys(line, n), st.lineMACs[line:line+n])
			st.markLines(line, n)
		}
		for _, ln := range reencrypt {
			if err := c.reencryptLine(st, r, ln); err != nil {
				return line, err
			}
		}
	}
	return end, nil
}

// reencryptLine re-encrypts sibling line ln after a leaf counter overflow
// reset its counter. The overflow set the sibling's local counter to zero
// and bumped the shared global, so its previous effective counter was
// (global-1)<<bits | oldLocal for some oldLocal the tree no longer holds;
// hardware re-encrypts in the same pass that resets the counters, before
// the old values are gone. This software rendition recovers oldLocal by
// checking the stored line MAC against each candidate — the local space is
// small by construction.
//
// This is the rare cold path (once per 2^LocalBits writes per line at
// worst); its copies are charged to PhaseReencrypt.
func (c *Controller) reencryptLine(st *regionState, r, ln int) error {
	a := c.lineAddr(r, ln)
	ct := c.mem.LineView(a)
	newCtr := st.tr.LeafCounter(ln)
	bits := st.tr.Geometry().LocalBits
	if bits == 0 {
		bits = tree.DefaultLocalBits
	}
	base := (newCtr >> bits) - 1 // previous global value
	// The line's keys at its new counter; this also makes its tweak bases
	// valid, and the search below probes the old counters from them.
	st.keyRun(ln, 1)
	rec := st.runKeys(ln, 1)
	pad, mask := rec[:mem.LineSize], crypt.Mask(rec[mem.LineSize:])
	padBase := st.bases[ln*crypt.LineBasesSize : (ln+1)*crypt.LineBasesSize]
	macBase := padBase[crypt.MaskBaseSize:]
	// The stored tag is LineHash(ct) ^ mask(counter) and the hash does not
	// depend on the candidate counter, so hash once and probe each
	// candidate with a single AES mask — same purity argument as the hot
	// path's keyRun.
	h := st.eng.LineHash(ct, &c.scr)
	var pt [mem.LineSize]byte
	found := false
	for local := uint64(0); local < 1<<bits; local++ {
		old := base<<bits | local
		// Constant-time compare even in this recovery search: each probe
		// tests an attacker-influenceable stored MAC.
		if crypt.TagEqual(h^st.eng.MaskFromBase(macBase, old, &c.scr), st.lineMACs[ln]) {
			crypt.XORLine(pt[:], ct, st.eng.PadLineFromBase(padBase, old, &c.scr)[:])
			found = true
			break
		}
	}
	if !found {
		// Integrity was already verified on the path; reaching here means
		// the sibling was tampered with between checks.
		c.probe.Event(trace.EvIntegrityFail, c.clock.Now(), st.guaddr, "overflow: sibling unrecoverable")
		return fmt.Errorf("%w: sibling line %d unrecoverable during overflow re-encryption", ErrIntegrity, ln)
	}
	crypt.XORLine(ct, pt[:], pad)
	st.lineMACs[ln] = st.eng.LineHash(ct, &c.scr) ^ mask
	st.markLines(ln, 1)
	c.stats.ReencryptedLines++
	c.probe.Count(trace.CtrReencryptLines, 1)
	c.probe.RecordOp(trace.OpReencrypt, c.prof.DRAMAccess+c.prof.AESLatency, 1)
	c.charge(trace.PhaseReencrypt, c.prof.DRAMAccess+c.prof.AESLatency)
	return nil
}

// Access is the timing-only path used by trace-driven experiments
// (Figure 11): it moves the node cache and cycle counters exactly like a
// real access but skips cryptography and data movement, so traces of
// millions of accesses stay fast. Region state is not consulted.
//
// Writes additionally pay a per-level update charge: the write path
// increments a counter and recomputes a MAC at every level and enqueues
// the dirty nodes for write-back (§V-A2), so deeper trees spend more
// write-queue occupancy per store.
func (c *Controller) Access(r, line int, write bool) {
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	total, verify := c.chargePath(r, line, 0)
	if write {
		cost := sim.Cycles(len(c.lay.Level)) * writeUpdatePerLevel
		c.probe.Count(trace.CtrMACUpdates, uint64(len(c.lay.Level)))
		c.charge(trace.PhaseTreeUpdate, cost)
		c.recordAccess(trace.OpLocalWrite, total+cost, verify, 1)
	} else {
		c.recordAccess(trace.OpLocalRead, total, verify, 1)
	}
}

// BumpRootCounter advances region r's root counter by one (the delegation
// engine's pre-seal bump). The region must have a live MMT.
func (c *Controller) BumpRootCounter(r int) error {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return ErrDisabled
	}
	st.tr.BumpRootCounter(st.eng, st.guaddr)
	return nil
}

// Crypto returns region r's key-derived crypto engine so the MMT closure
// delegation engine (package core) can seal and unseal the root.
func (c *Controller) Crypto(r int) (*crypt.Engine, error) {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return nil, ErrDisabled
	}
	return st.eng, nil
}

// Export exposes region r's transferable state: the serialized tree
// nodes, the raw ciphertext, the line MACs and the root counter. Package
// core wraps this into an MMT closure. Export requires a live MMT.
//
// treeBytes is a fresh serialization. data and lineMACs are borrowed,
// not copied: they are the region's own memory and line-MAC plane, so
// the caller must not write them, and they describe the exported state
// only until the region is next written, released or re-enabled. (Core
// holds the region read-only for exactly that span; Invalidate leaves
// both intact.)
func (c *Controller) Export(r int) (treeBytes, data []byte, lineMACs []uint64, rootCounter, guaddr uint64, err error) {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return nil, nil, nil, 0, 0, ErrDisabled
	}
	return st.tr.Serialize(), c.mem.RegionData(r), st.lineMACs, st.tr.RootCounter(), st.guaddr, nil
}

// Install adopts a transferred MMT into region r: deserializes the tree,
// installs the root counter, verifies every node MAC and every line MAC
// under key/guaddr, and only then copies data into the region and enables
// it. Any integrity failure leaves the region disabled and its bytes
// untouched. mode is the resulting enforcement mode (read-write for
// ownership transfer, read-only for ownership copy).
//
// treeBytes and data are only read; data may be the region's own bytes
// (Export, Invalidate, Install on one region). On success lineMACs becomes the
// region's line-MAC plane — the caller hands the slice over and must not
// touch it again; on failure nothing is retained. The one slice Install
// will not adopt is a plane Export lent from a region still live on this
// controller: that one is copied, so two regions never share MACs.
func (c *Controller) Install(r int, key crypt.Key, guaddr, rootCounter uint64, treeBytes, data []byte, lineMACs []uint64, mode Mode) error {
	st := c.region(r)
	if st.mode != ModeDisabled {
		return ErrBusy
	}
	if mode == ModeDisabled {
		return fmt.Errorf("engine: install with disabled mode")
	}
	if len(data) != c.lay.DataSize {
		return fmt.Errorf("engine: closure data %d bytes, want %d", len(data), c.lay.DataSize)
	}
	if len(lineMACs) != c.lay.Lines {
		return fmt.Errorf("engine: closure has %d line MACs, want %d", len(lineMACs), c.lay.Lines)
	}
	eng := crypt.NewEngine(key)
	tr, err := tree.Deserialize(c.geo, treeBytes)
	if err != nil {
		return err
	}
	tr.SetTrace(c.probe)
	tr.SetRootCounter(rootCounter)
	if err := tr.VerifyAll(eng, guaddr); err != nil {
		return err
	}
	// The line-MAC sweep stages its mask blocks in the planes the region
	// will get, each chunk in the bases of its own lines: nothing in them is
	// valid yet. A rejected closure leaves the pool as it found it.
	pooled := len(c.planePool) > 0
	planes := c.takePlanes()
	if err := c.verifyLineMACs(eng, tr, guaddr, data, lineMACs, planes.bases); err != nil {
		if pooled {
			c.planePool = append(c.planePool, planes)
		}
		return err
	}
	// Verdict in: only now does the region change. The copy is a sweep like
	// the verifying one, each worker moving its own span, and a pass of its
	// own, entered after every chunk of that one has returned: a rejected
	// closure writes nothing.
	dst := c.mem.RegionData(r)
	c.sweepLines(func(lo, hi int) int { // the copy cannot fail
		copy(dst[lo*mem.LineSize:hi*mem.LineSize], data[lo*mem.LineSize:])
		return -1
	})
	for i := range c.regions {
		if live := c.regions[i].lineMACs; len(live) > 0 && &live[0] == &lineMACs[0] {
			lineMACs = slices.Clone(lineMACs)
			break
		}
	}
	c.bindRegion(r, regionState{mode: mode, eng: eng, tr: tr, guaddr: guaddr, lineMACs: lineMACs, linePlanes: planes})
	tr.MarkAllDirty()
	// Install is functional verification (tree + line MACs) and advances
	// no clock, so its causal span is a zero-duration, zero-cycle marker
	// under the accept span — it pins *where* the install happened, not a
	// cost.
	c.probe.CausalSpan(c.causal, trace.PhaseMAC, c.clock.Now(), c.clock.Now(), 0)
	return nil
}

// FlushMeta serializes region r's tree nodes and line MACs into the
// memory's meta-zone, modelling the untrusted DRAM copy of the metadata.
func (c *Controller) FlushMeta(r int) {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return
	}
	meta := c.mem.MetaRegion(r)
	blob := st.tr.Serialize()
	n := copy(meta, blob)
	for i, m := range st.lineMACs {
		binary.LittleEndian.PutUint64(meta[n+i*8:], m)
	}
}

// LoadMeta re-reads region r's metadata from the meta-zone, replacing the
// controller's in-core copies. A physical attacker who rewrote the
// meta-zone is then caught by the next Read/Write verification. Every
// node and line MAC may have changed, so all of them are marked dirty.
func (c *Controller) LoadMeta(r int) error {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return ErrDisabled
	}
	meta := c.mem.MetaRegion(r)
	tr, err := tree.Deserialize(c.geo, meta[:c.lay.NodesSize])
	if err != nil {
		return err
	}
	tr.SetTrace(c.probe)
	tr.SetRootCounter(st.tr.RootCounter()) // root counter stays in SoC
	tr.MarkAllDirty()
	st.tr = tr
	off := c.lay.NodesSize
	for i := range st.lineMACs {
		st.lineMACs[i] = binary.LittleEndian.Uint64(meta[off+i*8:])
	}
	st.markLines(0, len(st.lineMACs))
	c.cache.invalidateRegion(r)
	return nil
}

// RestoreStats overwrites the activity counters; snapshot recovery uses it
// so a reloaded cluster reports the same cumulative figures it saved.
func (c *Controller) RestoreStats(s Stats) { c.stats = s }

// RegionDirty reports whether region r has uncheckpointed state: dirty
// tree nodes or dirty data lines since the last ClearRegionDirty.
func (c *Controller) RegionDirty(r int) bool {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return false
	}
	if st.tr.DirtyCount() > 0 {
		return true
	}
	for _, w := range st.dirtyLines {
		if w != 0 {
			return true
		}
	}
	return false
}

// DirtyLines calls fn for every dirty data line of region r in ascending
// order — the deterministic enumeration the checkpoint stream relies on.
func (c *Controller) DirtyLines(r int, fn func(line int)) {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return
	}
	for w, word := range st.dirtyLines {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// ClearRegionDirty resets region r's dirty-node and dirty-line tracking;
// the store layer calls it once the commit covering them is durable.
func (c *Controller) ClearRegionDirty(r int) {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return
	}
	st.tr.ClearDirty()
	clear(st.dirtyLines)
}

// LineState exposes region r's stored ciphertext (a view, valid until the
// next write) and line MAC for one line — the unit of the checkpoint
// stream's data-line records.
func (c *Controller) LineState(r, line int) (ciphertext []byte, mac uint64) {
	st := c.region(r)
	return c.mem.LineView(c.lineAddr(r, line)), st.lineMACs[line]
}

// LineSize re-exports the protected line granularity for callers that
// drive the controller without importing the memory model.
const LineSize = mem.LineSize
