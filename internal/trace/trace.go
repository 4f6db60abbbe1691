// Package trace is the MMT stack's observability layer: span-style
// events and monotonic counters, all stamped from the simulated clocks
// (sim.Time), never from the host. It exists to reproduce the paper's
// evaluation *breakdowns* — which cycles go to MAC verification, tree
// walks, DMA serialization, closure encode/decode (Figs. 10-14,
// Tables IV-V) — instead of only final numbers.
//
// Design rules, in priority order:
//
//   - Off by default and allocation-free when disabled. Every component
//     holds a *Probe; a nil Probe is the disabled state and all methods
//     are nil-safe no-ops, so the hot path pays one predictable branch.
//   - Deterministic. Two identical runs produce byte-identical exports:
//     no wall-clock time, no map iteration in any export path, stable
//     float formatting.
//   - Zero dependencies beyond internal/sim.
//
// A Sink aggregates per-process (per-machine) metrics and an event list.
// Components obtain a Probe with Sink.Probe(name) and then:
//
//	probe.Count(trace.CtrNodeCacheMisses, 1)      // monotonic counter
//	probe.Charge(clk, trace.PhaseMAC, cost)       // phase total and clock
//	sp := probe.Begin(trace.PhaseSend, clk.Now()) // span start
//	...
//	sp.End(clk.Now())                             // span end
//
// Beyond phases and counters, a Sink also aggregates per-operation
// cycle-latency histograms (hist.go) and a bounded security-event ledger
// (ledger.go), recorded through the same nil-safe probes.
//
// Concurrency: simulated nodes are single-threaded (as in the paper's
// Gem5 model), but a Sink may be *observed* — Snapshot, Events,
// SecEvents, the exporters — from other goroutines while a run is in
// flight (the /debug endpoint does exactly that), and the parallel
// runner merges worker sinks into a shared root. All mutating and
// reading entry points therefore take an internal mutex; a nil probe
// still short-circuits before the lock, so the disabled hot path stays
// a single branch with zero allocations.
package trace

import (
	"fmt"
	"sync"

	"mmt/internal/sim"
)

// Phase labels one cost category. Phases serve double duty: cycle
// accumulators (Charge) break an experiment's total into the paper's
// breakdown rows, and spans (Begin/End) carry the same labels into the
// Chrome-trace timeline.
type Phase uint8

const (
	// PhaseData: DRAM data-line access plus the OTP XOR (engine).
	PhaseData Phase = iota
	// PhaseRootMount: loading and verifying a root counter into the SoC
	// root table (engine).
	PhaseRootMount
	// PhaseTreeWalk: tree-node queue occupancy and node fetches on the
	// access path (engine).
	PhaseTreeWalk
	// PhaseMAC: MAC latencies for node verification and update (engine).
	PhaseMAC
	// PhaseTreeUpdate: write-path per-level counter bump and MAC
	// recomputation charges (engine).
	PhaseTreeUpdate
	// PhaseReencrypt: counter-overflow sibling re-encryption (engine).
	PhaseReencrypt
	// PhaseMemcpy: copies across the enclave boundary (secure channel).
	PhaseMemcpy
	// PhaseEncrypt: software AEAD encryption (secure channel).
	PhaseEncrypt
	// PhaseDecrypt: software AEAD decryption (secure channel).
	PhaseDecrypt
	// PhaseDMA: NIC/DMA serialization of outbound bytes (all channels).
	PhaseDMA
	// PhaseDelegation: MMT closure fixed costs — seal, unseal, ack.
	PhaseDelegation
	// PhaseConnect: monitor connection handshake (span only).
	PhaseConnect
	// PhaseSend: one outbound transfer operation (span only).
	PhaseSend
	// PhaseRecv: one inbound accept operation (span only).
	PhaseRecv
	// PhaseApp: application compute (map/reduce/vertex work).
	PhaseApp
	// PhaseWire: one message's flight time on the untrusted interconnect
	// (causal span only, recorded by the receiving endpoint; carries no
	// cycles — propagation delay is wait, not work).
	PhaseWire

	// NumPhases bounds the Phase enum; keep it last.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseData:       "data-access",
	PhaseRootMount:  "root-mount",
	PhaseTreeWalk:   "tree-walk",
	PhaseMAC:        "mac",
	PhaseTreeUpdate: "tree-update",
	PhaseReencrypt:  "reencrypt",
	PhaseMemcpy:     "memcpy",
	PhaseEncrypt:    "encrypt",
	PhaseDecrypt:    "decrypt",
	PhaseDMA:        "dma",
	PhaseDelegation: "delegation",
	PhaseConnect:    "connect",
	PhaseSend:       "send",
	PhaseRecv:       "recv",
	PhaseApp:        "app-compute",
	PhaseWire:       "wire",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Counter labels one monotonic count.
type Counter uint8

const (
	// CtrTreeNodeWalks: tree-node lookups on the controller access path
	// (one per level per access).
	CtrTreeNodeWalks Counter = iota
	// CtrMACVerifies: cost-model MAC checks (node-cache misses, root
	// mounts excluded).
	CtrMACVerifies
	// CtrMACUpdates: write-path MAC recomputations.
	CtrMACUpdates
	// CtrNodeCacheHits / CtrNodeCacheMisses: on-chip MMT cache outcomes.
	CtrNodeCacheHits
	CtrNodeCacheMisses
	// CtrRootMounts: Penglai-style root loads into the SoC root table.
	CtrRootMounts
	// CtrReencryptLines: sibling lines re-encrypted on counter overflow.
	CtrReencryptLines
	// CtrTreeNodeVerifies: functional node-MAC verifications in the tree
	// (unlike CtrMACVerifies these ignore the cost model's cache).
	CtrTreeNodeVerifies
	// CtrTreeNodeVerifyFails: functional node-MAC verifications that
	// failed — direct tamper evidence, rendered by mmt-attack.
	CtrTreeNodeVerifyFails
	// CtrTreeNodeRehashes: functional node-MAC recomputations.
	CtrTreeNodeRehashes
	// CtrClosuresSent / Accepted / Rejected: delegation outcomes.
	CtrClosuresSent
	CtrClosuresAccepted
	CtrClosuresRejected
	// CtrClosureEncodeBytes / DecodeBytes: encoded closure sizes.
	CtrClosureEncodeBytes
	CtrClosureDecodeBytes
	// CtrWireMsgs* / CtrWireBytes*: interconnect traffic per
	// netsim.Kind, counted at the sender — exactly what a wire
	// adversary observes.
	CtrWireMsgsData
	CtrWireMsgsClosure
	CtrWireMsgsControl
	CtrWireBytesData
	CtrWireBytesClosure
	CtrWireBytesControl

	// NumCounters bounds the Counter enum; keep it last.
	NumCounters
)

var counterNames = [NumCounters]string{
	CtrTreeNodeWalks:       "tree-node-walks",
	CtrMACVerifies:         "mac-verifies",
	CtrMACUpdates:          "mac-updates",
	CtrNodeCacheHits:       "node-cache-hits",
	CtrNodeCacheMisses:     "node-cache-misses",
	CtrRootMounts:          "root-mounts",
	CtrReencryptLines:      "reencrypt-lines",
	CtrTreeNodeVerifies:    "tree-node-verifies",
	CtrTreeNodeVerifyFails: "tree-node-verify-fails",
	CtrTreeNodeRehashes:    "tree-node-rehashes",
	CtrClosuresSent:        "closures-sent",
	CtrClosuresAccepted:    "closures-accepted",
	CtrClosuresRejected:    "closures-rejected",
	CtrClosureEncodeBytes:  "closure-encode-bytes",
	CtrClosureDecodeBytes:  "closure-decode-bytes",
	CtrWireMsgsData:        "wire-msgs-data",
	CtrWireMsgsClosure:     "wire-msgs-closure",
	CtrWireMsgsControl:     "wire-msgs-control",
	CtrWireBytesData:       "wire-bytes-data",
	CtrWireBytesClosure:    "wire-bytes-closure",
	CtrWireBytesControl:    "wire-bytes-control",
}

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", uint8(c))
}

// Event is one completed span on the simulated timeline. The causal
// fields are optional: a zero Trace marks a plain (unlinked) span; a
// valid Trace links the span into that trace's tree (see causal.go).
type Event struct {
	Proc  string
	Phase Phase
	Begin sim.Time
	End   sim.Time
	// Trace/Span/Parent are the causal link: which trace this span
	// belongs to, its 1-based span ID within that trace, and its parent
	// span's ID (0 = this span is the trace root).
	Trace  TraceID
	Span   uint32
	Parent uint32
	// Cycles is the span's own attributed cost (children excluded).
	Cycles sim.Cycles
}

// procMetrics is one process's (machine's) accumulators.
type procMetrics struct {
	name     string
	counters [NumCounters]uint64
	cycles   [NumPhases]sim.Cycles
	ops      [NumOps]Histogram
	// causalSeq is the process's monotonic trace-ID counter (causal.go).
	causalSeq uint64
	// series is the windowed sampler state, allocated lazily on the
	// first clock window tick (series.go); nil when sampling is off or
	// the process's clock has not crossed a window yet.
	series *procSeries
}

// Sink aggregates trace data for one cluster or testbed. The zero value
// is not usable; construct with NewSink. A nil *Sink is valid and means
// tracing is disabled everywhere it is handed out.
type Sink struct {
	mu     sync.Mutex
	procs  []*procMetrics // registration order; exports sort by name
	byName map[string]*procMetrics
	events []Event
	ledger secLedger
	// spanSeq allocates per-trace span IDs (1-based, parents before
	// children — see causal.go).
	spanSeq map[TraceID]uint32
	// seriesOn/seriesCfg configure the windowed sampler (series.go).
	seriesOn  bool
	seriesCfg SeriesConfig
}

// NewSink returns an empty sink.
func NewSink() *Sink {
	return &Sink{byName: make(map[string]*procMetrics)}
}

// Probe returns the named process's probe, creating the process record
// on first use. On a nil sink it returns nil — the disabled probe.
func (s *Sink) Probe(name string) *Probe {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.byName[name]
	if !ok {
		p = &procMetrics{name: name}
		s.byName[name] = p
		s.procs = append(s.procs, p)
	}
	return &Probe{sink: s, proc: p}
}

// Reset zeroes all counters, cycle accumulators and events, keeping the
// registered processes (and any probes already handed out) valid.
func (s *Sink) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.procs {
		p.counters = [NumCounters]uint64{}
		p.cycles = [NumPhases]sim.Cycles{}
		p.ops = [NumOps]Histogram{}
		p.causalSeq = 0
		p.series = nil
	}
	s.events = nil
	s.ledger.reset()
	s.spanSeq = nil
}

// Merge folds src's accumulators, events and ledger into s: counters,
// cycle totals and histograms add per process (new processes append in
// src registration order), span events and security events append in src
// record order (ledger sequence numbers are reassigned to s's sequence).
// It is the reduction step of the deterministic parallel runner
// (internal/par): work units record into private sinks and the caller
// merges them serially in input order, which reproduces the serial run's
// registration order, float addition order and event order exactly.
// Nil-safe on either side; src must not be concurrently mutated.
func (s *Sink) Merge(src *Sink) {
	if s == nil || src == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Two mutexes of one type held at once — the only place in the module:
	// s and src are distinct instances by contract (src is a worker's
	// private sink being folded into the shared one), and merges run
	// serially on the coordinating goroutine (see internal/par).
	src.mu.Lock()
	defer src.mu.Unlock()
	// Causal trace IDs are per-process sequences, so folding a worker's
	// sink in re-bases its trace sequence numbers onto the destination's
	// counters: worker trace (proc, k) becomes (proc, base+k) where base
	// is the destination's counter before the merge. Merging workers
	// serially in input order therefore reproduces exactly the IDs a
	// serial run would have minted. Traces must be complete within one
	// work unit (the mmt-vet tracectx rule) for this to be sound.
	base := make(map[string]uint64, len(src.procs))
	for _, sp := range src.procs {
		dst, ok := s.byName[sp.name]
		if !ok {
			dst = &procMetrics{name: sp.name}
			s.byName[sp.name] = dst
			s.procs = append(s.procs, dst)
		}
		for c := range sp.counters {
			dst.counters[c] += sp.counters[c]
		}
		for ph := range sp.cycles {
			dst.cycles[ph] += sp.cycles[ph]
		}
		for op := range sp.ops {
			dst.ops[op].MergeFrom(&sp.ops[op])
		}
		base[sp.name] = dst.causalSeq
		dst.causalSeq += sp.causalSeq
		s.mergeSeriesLocked(dst, sp)
	}
	for _, ev := range src.events {
		if ev.Trace.Valid() {
			ev.Trace.Seq += base[ev.Trace.Proc]
		}
		s.events = append(s.events, ev)
	}
	if len(src.spanSeq) > 0 && s.spanSeq == nil {
		s.spanSeq = make(map[TraceID]uint32, len(src.spanSeq))
	}
	// Keys are distinct after re-basing (worker trace IDs map injectively
	// into the destination's ID space), so insertion order is irrelevant.
	//mmt:allow maporder: independent keys, insertions commute
	for id, n := range src.spanSeq {
		id.Seq += base[id.Proc]
		s.spanSeq[id] = n
	}
	for _, ev := range src.ledger.snapshot() {
		s.ledger.record(ev)
	}
}

// Events returns a copy of the recorded spans in record order.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Probe is one component's handle into a Sink. A nil *Probe is the
// disabled state: every method is a nil-safe no-op, so instrumented hot
// paths cost a single branch and zero allocations when tracing is off.
type Probe struct {
	sink *Sink
	proc *procMetrics
}

// Enabled reports whether the probe records anything.
func (p *Probe) Enabled() bool { return p != nil }

// Count adds n to a monotonic counter. The nil check is the whole of the
// exported method so that it inlines: an instrumented hot path with
// tracing off pays the branch and no call.
func (p *Probe) Count(c Counter, n uint64) {
	if p != nil {
		p.count(c, n)
	}
}

func (p *Probe) count(c Counter, n uint64) {
	if c >= NumCounters {
		return
	}
	p.sink.mu.Lock()
	p.proc.counters[c] += n
	p.sink.mu.Unlock()
}

// Charge books n simulated cycles of work to phase ph and advances clk
// by them: the one call that moves a clock for work done, so a machine's
// phase totals plus its receive waits (netsim's remote-read samples) are
// its clock by construction. A nil probe books nothing and still
// advances the clock.
func (p *Probe) Charge(clk *sim.Clock, ph Phase, n sim.Cycles) {
	if p != nil {
		p.addCycles(ph, n)
	}
	clk.AdvanceCycles(n)
}

func (p *Probe) addCycles(ph Phase, n sim.Cycles) {
	if ph >= NumPhases {
		return
	}
	p.sink.mu.Lock()
	p.proc.cycles[ph] += n
	p.sink.mu.Unlock()
}

// Begin opens a span at the given simulated instant. The returned Span
// is a value; nothing is recorded until End.
func (p *Probe) Begin(ph Phase, now sim.Time) Span {
	if p == nil {
		return Span{}
	}
	return Span{probe: p, phase: ph, begin: now}
}

// Span records a completed [begin, end] interval immediately.
func (p *Probe) Span(ph Phase, begin, end sim.Time) {
	if p == nil {
		return
	}
	if end < begin {
		end = begin
	}
	p.sink.mu.Lock()
	p.sink.events = append(p.sink.events, Event{Proc: p.proc.name, Phase: ph, Begin: begin, End: end})
	p.sink.mu.Unlock()
}

// Span is an open interval started by Probe.Begin. The zero value (from
// a disabled probe) is valid; End on it is a no-op.
type Span struct {
	probe *Probe
	phase Phase
	begin sim.Time
}

// End closes the span at the given simulated instant and records it.
func (s Span) End(now sim.Time) {
	if s.probe == nil {
		return
	}
	s.probe.Span(s.phase, s.begin, now)
}

// ProcMetrics is the exported snapshot of one process's accumulators.
type ProcMetrics struct {
	Proc     string
	Counters [NumCounters]uint64
	Cycles   [NumPhases]sim.Cycles
	Ops      [NumOps]Histogram
}

// Metrics is a copied, immutable snapshot of a sink's accumulators,
// sorted by process name. No interior mutable state escapes: arrays are
// copied by value and the slice is freshly allocated.
type Metrics struct {
	Procs []ProcMetrics
}

// Snapshot captures the sink's current accumulators. Safe on a nil sink
// (returns an empty Metrics).
func (s *Sink) Snapshot() Metrics {
	if s == nil {
		return Metrics{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{Procs: make([]ProcMetrics, 0, len(s.procs))}
	for _, p := range s.procs {
		m.Procs = append(m.Procs, ProcMetrics{Proc: p.name, Counters: p.counters, Cycles: p.cycles, Ops: p.ops})
	}
	sortProcs(m.Procs)
	return m
}

// sortProcs orders snapshots by process name (insertion sort: the proc
// count is the machine count, single digits in practice).
func sortProcs(ps []ProcMetrics) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Proc < ps[j-1].Proc; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Counter totals c across all processes.
func (m Metrics) Counter(c Counter) uint64 {
	var total uint64
	if c >= NumCounters {
		return 0
	}
	for i := range m.Procs {
		total += m.Procs[i].Counters[c]
	}
	return total
}

// PhaseCycles totals ph across all processes.
func (m Metrics) PhaseCycles(ph Phase) sim.Cycles {
	var total sim.Cycles
	if ph >= NumPhases {
		return 0
	}
	for i := range m.Procs {
		total += m.Procs[i].Cycles[ph]
	}
	return total
}

// TotalCycles sums every phase accumulator across all processes.
func (m Metrics) TotalCycles() sim.Cycles {
	var total sim.Cycles
	for ph := Phase(0); ph < NumPhases; ph++ {
		total += m.PhaseCycles(ph)
	}
	return total
}

// Op merges the named operation's histogram across all processes
// (process-name order, which is deterministic).
func (m Metrics) Op(op Op) Histogram {
	var h Histogram
	if int(op) >= NumOps {
		return h
	}
	for i := range m.Procs {
		h.MergeFrom(&m.Procs[i].Ops[op])
	}
	return h
}
