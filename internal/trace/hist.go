package trace

import (
	"math/bits"

	"mmt/internal/sim"
)

// Op is an operation kind with a cycle-latency distribution. Histograms
// are recorded at the same charge points that mirror cycles into phases,
// so every sample is a deterministic function of the cost model.
type Op uint8

const (
	// OpLocalRead is one protected read through the MMT controller
	// (data fetch + path walk + MAC checks).
	OpLocalRead Op = iota
	// OpLocalWrite is one protected write (verify + tree update +
	// re-encrypt + MAC).
	OpLocalWrite
	// OpRemoteRead is receive-side interconnect work: decrypt+copy on a
	// secure channel, or the simulated wire wait in netsim.
	OpRemoteRead
	// OpRemoteWrite is send-side interconnect work (NIC/DMA push, plus
	// encrypt+copy on a secure channel).
	OpRemoteWrite
	// OpMigrationSend is the sender-side cost of one MMT closure
	// delegation (DMA of the encoded closure + the fixed seal cost).
	OpMigrationSend
	// OpMigrationRecv is the receiver-side charged cost of accepting one
	// MMT closure (the delegation ack write).
	OpMigrationRecv
	// OpVerify is the integrity-verification share of one protected
	// access (root mount + node/line MAC latency on misses).
	OpVerify
	// OpReencrypt is one counter-recovery line re-encryption.
	OpReencrypt

	// NumOps is the number of operation kinds.
	NumOps = int(OpReencrypt) + 1
)

var opNames = [NumOps]string{
	OpLocalRead:     "local-read",
	OpLocalWrite:    "local-write",
	OpRemoteRead:    "remote-read",
	OpRemoteWrite:   "remote-write",
	OpMigrationSend: "migration-send",
	OpMigrationRecv: "migration-recv",
	OpVerify:        "verify",
	OpReencrypt:     "reencrypt",
}

func (o Op) String() string {
	if int(o) < NumOps {
		return opNames[o]
	}
	return "op?"
}

// HistBuckets is the fixed bucket count of every histogram. Bucket 0
// counts sub-cycle samples (< 1 cycle); bucket i counts samples in
// [2^(i-1), 2^i) cycles. The last bucket absorbs anything at or above
// 2^(HistBuckets-2) cycles (~2.3 simulated years at 2 GHz), so the
// layout never changes with the data — a requirement for byte-identical
// merges across serial and parallel runs.
const HistBuckets = 48

// Histogram is a fixed-bucket power-of-two cycle-latency histogram.
// The zero value is an empty histogram ready for use. All fields are
// integers or dyadic-safe float sums, so merging histograms in a fixed
// order reproduces the serial result bit for bit.
type Histogram struct {
	Count   uint64
	Sum     sim.Cycles // exact only up to float64 addition order; merged in input order
	Min     sim.Cycles // exact smallest sample; valid when Count > 0
	Max     sim.Cycles // exact largest sample; valid when Count > 0
	Buckets [HistBuckets]uint64
}

// bucketIndex maps a sample to its bucket. Negative samples cannot occur
// (costs are non-negative); sub-cycle samples land in bucket 0.
func bucketIndex(c sim.Cycles) int {
	if c < 1 {
		return 0
	}
	i := bits.Len64(uint64(c))
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// BucketBound reports the exclusive upper bound of bucket i in cycles
// (the "le" edge reported by exporters): 1 for bucket 0, 2^i otherwise.
func BucketBound(i int) sim.Cycles {
	if i <= 0 {
		return 1
	}
	return sim.Cycles(uint64(1) << uint(i))
}

// Record adds n > 0 samples of c cycles each. The sum grows by n*c, which
// equals n single additions whenever c and the sum are dyadic, as every
// engine cost is.
func (h *Histogram) Record(c sim.Cycles, n uint64) {
	h.Count += n
	h.Sum += c * sim.Cycles(n)
	if h.Count == n || c < h.Min {
		h.Min = c
	}
	if c > h.Max {
		h.Max = c
	}
	h.Buckets[bucketIndex(c)] += n
}

// MergeFrom folds src into h. Bucket counts and Count add; Sum adds in
// call order (callers merge in input order for determinism); Min/Max
// compare exactly.
func (h *Histogram) MergeFrom(src *Histogram) {
	if src.Count == 0 {
		return
	}
	if h.Count == 0 || src.Min < h.Min {
		h.Min = src.Min
	}
	if src.Max > h.Max {
		h.Max = src.Max
	}
	h.Count += src.Count
	h.Sum += src.Sum
	for i := range h.Buckets {
		h.Buckets[i] += src.Buckets[i]
	}
}

// Quantile reports the bucket upper bound containing the q-quantile
// sample (0 < q <= 1), i.e. an exact "latency <= this many cycles"
// statement for at least a q fraction of samples. Because bucket counts
// are integers, the result is byte-identical however the histogram was
// assembled. Returns 0 on an empty histogram. As a refinement, when the
// rank falls in the last occupied bucket the exact Max is returned
// instead of the (looser) bucket bound.
func (h *Histogram) Quantile(q float64) sim.Cycles {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.Count))
	if float64(rank) < q*float64(h.Count) { // ceil
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var seen uint64
	first, last := -1, 0
	for i := HistBuckets - 1; i >= 0; i-- {
		if h.Buckets[i] != 0 {
			last = i
			break
		}
	}
	for i := 0; i <= last; i++ {
		if h.Buckets[i] != 0 && first < 0 {
			first = i
		}
		seen += h.Buckets[i]
		if seen >= rank {
			// Envelope refinement at the edges: every sample in the last
			// occupied bucket is <= Max and every sample in the first is
			// >= Min, so those ranks report the recorded extreme instead
			// of a power-of-two bucket bound (when one bucket holds all
			// samples, first == last and Max wins). Interior ranks keep
			// the bucket's upper bound. Still monotone in q: Min < every
			// interior bound <= BucketBound(last-1) < Max.
			if i == last {
				return h.Max
			}
			if i == first {
				return h.Min
			}
			return BucketBound(i)
		}
	}
	return h.Max
}

// Mean reports the average sample in cycles (0 when empty).
func (h *Histogram) Mean() sim.Cycles {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / sim.Cycles(h.Count)
}

// RecordOp adds n cycle-latency samples of c cycles for op to the probe's
// process, under one lock. A nil probe records nothing and costs nothing:
// the nil check is the whole of the exported method so that it inlines.
func (p *Probe) RecordOp(op Op, c sim.Cycles, n uint64) {
	if p != nil {
		p.recordOp(op, c, n)
	}
}

func (p *Probe) recordOp(op Op, c sim.Cycles, n uint64) {
	p.sink.mu.Lock()
	p.proc.ops[op].Record(c, n)
	p.sink.mu.Unlock()
}
