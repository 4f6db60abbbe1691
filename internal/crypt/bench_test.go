package crypt

import "testing"

// Benchmarks for the line-granularity kernels. The scratch variants must
// report 0 allocs/op: they are the protected read/write inner loop, and
// the modelled hardware pipeline has no allocator.

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	return NewEngine(KeyFromBytes([]byte("bench")))
}

// BenchmarkPadLine: tweak base plus 4-block OTP generation for a 64-byte
// line.
func BenchmarkPadLine(b *testing.B) {
	e := benchEngine(b)
	var s Scratch
	var base [MaskBaseSize]byte
	tw := Tweak{GUAddr: 0x1000, Line: 7, Counter: 42}
	padLine(e, tw, base[:], &s)
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.Counter = uint64(i)
		padLine(e, tw, base[:], &s)
	}
}

// BenchmarkEncryptLineInto: OTP-encrypt one line into a caller buffer.
func BenchmarkEncryptLineInto(b *testing.B) {
	e := benchEngine(b)
	var s Scratch
	var line, dst [LineSize]byte
	var base [MaskBaseSize]byte
	tw := Tweak{GUAddr: 0x1000, Line: 7, Counter: 42}
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.Counter = uint64(i)
		encryptLineInto(e, tw, line[:], dst[:], base[:], &s)
	}
}

// BenchmarkLineMACBuf: Carter-Wegman line MAC through the scratch path
// (the allocating variant is benchmarked in crypt_test.go).
func BenchmarkLineMACBuf(b *testing.B) {
	e := benchEngine(b)
	var s Scratch
	var ct [LineSize]byte
	tw := Tweak{GUAddr: 0x1000, Line: 7, Counter: 42}
	e.LineMACBuf(tw, ct[:], &s)
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.Counter = uint64(i)
		_ = e.LineMACBuf(tw, ct[:], &s)
	}
}

// packedWords builds the packed counter plane of an n-ary node: a global
// word plus n 16-bit local fields, four per word.
func packedWords(n int) []uint64 {
	p := make([]uint64, 1+(n+3)/4)
	p[0] = 7 // global
	for s := 0; s < n; s++ {
		p[1+s/4] |= uint64(s&0xFFFF) << uint(16*(s%4))
	}
	return p
}

// BenchmarkNodeMACBatch: the node MACs of a full 3-level path
// (16/32/64-ary), hash and mask.
func BenchmarkNodeMACBatch(b *testing.B) {
	e := benchEngine(b)
	var s Scratch
	jobs := []NodeMACJob{
		{NodeID: 0, ParentCounter: 1, Arity: 16, Packed: packedWords(16)},
		{NodeID: 1 << 24, ParentCounter: 2, Arity: 32, Packed: packedWords(32)},
		{NodeID: 2 << 24, ParentCounter: 3, Arity: 64, Packed: packedWords(64)},
	}
	out := make([]uint64, len(jobs))
	e.NodeMACBatch(0x1000, jobs, out, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs[0].ParentCounter = uint64(i)
		e.NodeMACBatch(0x1000, jobs, out, &s)
	}
}

// BenchmarkNodeHashBatch: same path, unmasked GF halves only — what the
// tree computes when its per-node mask cache hits.
func BenchmarkNodeHashBatch(b *testing.B) {
	e := benchEngine(b)
	var s Scratch
	jobs := []NodeMACJob{
		{NodeID: 0, ParentCounter: 1, Arity: 16, Packed: packedWords(16)},
		{NodeID: 1 << 24, ParentCounter: 2, Arity: 32, Packed: packedWords(32)},
		{NodeID: 2 << 24, ParentCounter: 3, Arity: 64, Packed: packedWords(64)},
	}
	out := make([]uint64, len(jobs))
	e.NodeHashBatch(jobs, out, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs[0].ParentCounter = uint64(i)
		e.NodeHashBatch(jobs, out, &s)
	}
}

// BenchmarkSeal: AES-GCM root sealing (migration path, allocation
// expected — it is off the line-access hot path).
func BenchmarkSeal(b *testing.B) {
	e := benchEngine(b)
	aad := []byte("root")
	pt := make([]byte, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Seal(uint64(i), aad, pt)
	}
}

// BenchmarkSealOpenLines: the run kernels of the line data path over a
// 64-line leaf run, per line — XOR, hash and mask, and on the way out the
// tag compare; XORLines is the XOR kernel alone.
func BenchmarkSealOpenLines(b *testing.B) {
	e := benchEngine(b)
	const n = 64
	bases, keys, ctrs := make([]byte, n*LineBasesSize), make([]byte, n*LineKeysSize), make([]uint64, n)
	e.LineBases(1, 0, bases)
	e.LineKeys(bases, ctrs, keys)
	src, ct, macs := make([]byte, n*LineSize), make([]byte, n*LineSize), make([]uint64, n)
	e.SealLines(ct, src, keys, macs) // OpenLines below needs matching MACs whatever -bench selects
	b.Run("SealLines", func(b *testing.B) {
		b.SetBytes(LineSize)
		for i := 0; i < b.N; i += n {
			e.SealLines(ct, src, keys, macs)
		}
	})
	b.Run("SealLines1", func(b *testing.B) {
		b.SetBytes(LineSize)
		for i := 0; i < b.N; i++ {
			e.SealLines(ct[:LineSize], src[:LineSize], keys[:LineKeysSize], macs[:1])
		}
	})
	b.Run("OpenLines", func(b *testing.B) {
		b.SetBytes(LineSize)
		for i := 0; i < b.N; i += n {
			if e.OpenLines(src, ct, keys, macs) != n {
				b.Fatal("bad MAC")
			}
		}
	})
	b.Run("XORLines", func(b *testing.B) {
		b.SetBytes(LineSize)
		for i := 0; i < b.N; i += n {
			XORLines(src, ct, keys)
		}
	})
	b.Run("OpenLines1", func(b *testing.B) {
		b.SetBytes(LineSize)
		for i := 0; i < b.N; i++ {
			if e.OpenLines(src[:LineSize], ct[:LineSize], keys[:LineKeysSize], macs[:1]) != 1 {
				b.Fatal("bad MAC")
			}
		}
	})
}
