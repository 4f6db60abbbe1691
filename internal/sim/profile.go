package sim

// Profile is a calibrated cost model for one of the paper's testbeds. All
// costs are expressed in Cycles at FreqHz; helpers convert to Time. The
// calibration sources are quoted next to each constructor.
type Profile struct {
	Name   string
	FreqHz float64

	// Software crypto (the secure-channel baseline). Affine model:
	// setup + perByte*n cycles. On Gem5 this is CPU-only AES-GCM; on the
	// Intel testbed it is AES-NI accelerated.
	EncryptSetup   Cycles
	EncryptPerByte float64
	DecryptSetup   Cycles
	DecryptPerByte float64

	// Memcpy between secure and non-secure memory. A curve because small
	// copies are cache resident (Table IV shows 0.32..1.02 cycles/B).
	Memcpy      *Curve
	MemcpySetup Cycles

	// Remote write over the interconnect (RDMA-like one-sided write).
	RemoteWriteSetup   Cycles
	RemoteWritePerByte float64

	// MMT closure delegation fixed cost: root seal + unseal + state
	// transitions + ack. The bulk transfer itself is priced as a remote
	// write of data+metadata by the channel layer.
	DelegationFixed Cycles

	// One-way network propagation latency added on top of the
	// bandwidth-proportional cost. Figure 10b sweeps this.
	NetLatency Time

	// Memory-protection engine timing (Table II).
	DRAMAccess Cycles // one DRAM line access as seen by the controller
	AESLatency Cycles // on-chip OTP/AES pipeline latency (40 cycles)
	MACLatency Cycles // GF dot-product + XOR per node/line check

	// MMT controller geometry (Table II/III).
	MMTCacheBytes int // on-chip tree-node cache (32 KB in Gem5)
	RootTableSoC  int // bytes of SoC storage reserved for MMT roots
	SecureMemory  int // bytes of protected physical memory
}

// Clone returns a copy of p so experiments can perturb parameters (e.g.
// NetLatency sweeps) without mutating the shared profile.
func (p *Profile) Clone() *Profile {
	q := *p
	return &q
}

// EncryptCost reports the cycles to AEAD-encrypt n bytes.
func (p *Profile) EncryptCost(n int) Cycles {
	if n <= 0 {
		return 0
	}
	return p.EncryptSetup + Cycles(float64(n)*p.EncryptPerByte)
}

// DecryptCost reports the cycles to AEAD-decrypt-and-verify n bytes.
func (p *Profile) DecryptCost(n int) Cycles {
	if n <= 0 {
		return 0
	}
	return p.DecryptSetup + Cycles(float64(n)*p.DecryptPerByte)
}

// MemcpyCost reports the cycles for one n-byte copy between secure and
// non-secure memory.
func (p *Profile) MemcpyCost(n int) Cycles {
	if n <= 0 {
		return 0
	}
	return p.MemcpySetup + Cycles(p.Memcpy.Cost(n))
}

// RemoteWriteCost reports the cycles of NIC/DMA work to push n bytes to a
// remote node, excluding propagation latency (see NetLatency).
func (p *Profile) RemoteWriteCost(n int) Cycles {
	if n <= 0 {
		return 0
	}
	return p.RemoteWriteSetup + Cycles(float64(n)*p.RemoteWritePerByte)
}

// ToTime converts a cycle count to simulated seconds on this profile.
func (p *Profile) ToTime(n Cycles) Time { return Time(float64(n) / p.FreqHz) }

// Gem5Profile returns the cost model for the paper's Gem5 testbed
// (Table II: 8 OoO cores @ 2 GHz, LPDDR3-1600, 32 KB MMT cache, 8 KB of
// MMT roots in SoC, 3-level tree, 40-cycle encryption latency).
//
// Calibration (Table IV, Gem5 columns, in 10^3 cycles):
//
//	encrypt: 77.4 @2K .. 34612 @2M  -> setup 42k,  16.46 cycles/B
//	decrypt: 104.6 @2K .. 32230 @2M -> setup 75k,  15.33 cycles/B
//	memcpy:  0.32 c/B @2K .. 1.02 c/B @2M (per copy; curve)
//	remote_w: 7.69 @2K .. 367 @2M   -> setup 7.4k, 0.172 cycles/B
//	MMT delegation of one 2M closure = 422k cycles
func Gem5Profile() *Profile {
	return &Profile{
		Name:           "gem5",
		FreqHz:         2e9,
		EncryptSetup:   42_000,
		EncryptPerByte: 16.46,
		DecryptSetup:   75_000,
		DecryptPerByte: 15.33,
		Memcpy: NewCurve(
			CurvePoint{Size: 2 << 10, PerByte: 0.32},
			CurvePoint{Size: 8 << 10, PerByte: 0.38},
			CurvePoint{Size: 32 << 10, PerByte: 0.71},
			CurvePoint{Size: 128 << 10, PerByte: 0.80},
			CurvePoint{Size: 512 << 10, PerByte: 0.94},
			CurvePoint{Size: 2 << 20, PerByte: 1.02},
		),
		MemcpySetup:        0,
		RemoteWriteSetup:   7_400,
		RemoteWritePerByte: 0.172,
		DelegationFixed:    4_000,
		NetLatency:         0,
		DRAMAccess:         110,
		AESLatency:         40,
		MACLatency:         8,
		MMTCacheBytes:      32 << 10,
		RootTableSoC:       8 << 10,
		SecureMemory:       2 << 30,
	}
}

// IntelProfile returns the cost model for the paper's real-machine testbed
// (Table III: Xeon E5-2650 v4 @ 2.2 GHz, AES-NI, 100 Gbps RDMA NIC,
// 16 GB secure memory, simulated 3-level MMT).
//
// Calibration (Table IV, Intel columns, ms for 32M):
//
//	encrypt 16.5ms -> 2.03 GB/s, decrypt 16.9ms -> 1.99 GB/s
//	memcpy 8.84ms for 2x32M -> 7.6 GB/s per copy
//	remote_w 3.01ms -> 11.1 GB/s (Fig 10a: 11 GB/s RDMA peak)
//	MMT delegation of 32M = 3.47ms -> 9.68 GB/s goodput (Fig 10a)
func IntelProfile() *Profile {
	const freq = 2.2e9
	gbps := func(bytesPerSec float64) float64 { return freq / bytesPerSec } // cycles per byte
	return &Profile{
		Name:           "intel-e5-2650",
		FreqHz:         freq,
		EncryptSetup:   Cycles(2_200), // ~1us GCM setup/finalize with AES-NI
		EncryptPerByte: gbps(2.03e9),
		DecryptSetup:   Cycles(2_200),
		DecryptPerByte: gbps(1.99e9),
		Memcpy: NewCurve(
			CurvePoint{Size: 4 << 10, PerByte: gbps(25e9)},
			CurvePoint{Size: 1 << 20, PerByte: gbps(12e9)},
			CurvePoint{Size: 32 << 20, PerByte: gbps(7.6e9)},
		),
		MemcpySetup:        0,
		RemoteWriteSetup:   Cycles(4_400), // ~2us RDMA post+completion
		RemoteWritePerByte: gbps(11.1e9),
		DelegationFixed:    Cycles(6_600), // root seal/unseal + 2nd RDMA post
		NetLatency:         2e-6,          // same-rack RDMA round trip order
		DRAMAccess:         90,
		AESLatency:         40,
		MACLatency:         8,
		MMTCacheBytes:      64 << 10,
		RootTableSoC:       64 << 10,
		SecureMemory:       16 << 30,
	}
}

// Link describes one row of the paper's Table I (interconnect throughput).
type Link struct {
	Method     string
	Throughput string // as printed in the paper
	Connection string
}

// TableILinks reproduces Table I of the paper.
func TableILinks() []Link {
	return []Link{
		{Method: "PCI-E 5.0", Throughput: "32GT/s", Connection: "CPU-Device"},
		{Method: "UCI-E", Throughput: "32GT/s", Connection: "Chiplets"},
		{Method: "RDMA", Throughput: "400Gb/s", Connection: "Remote Memory"},
		{Method: "NVLINK", Throughput: "900GB/s", Connection: "GPU"},
	}
}
