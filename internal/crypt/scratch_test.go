package crypt

import (
	"bytes"
	"testing"
	"testing/quick"
)

// padLine is the fast pad as the engine composes it: the tweak base into
// base, then the keystream replayed from it, all through s.
func padLine(e *Engine, tw Tweak, base []byte, s *Scratch) *[LineSize]byte {
	e.MaskBaseInto(tw.GUAddr, tw.Line, DomainPad, base, s)
	return e.PadLineFromBase(base, tw.Counter, s)
}

// encryptLineInto is the fast line cipher: padLine, then XORLine.
func encryptLineInto(e *Engine, tw Tweak, line, dst, base []byte, s *Scratch) {
	XORLine(dst, line, padLine(e, tw, base, s)[:])
}

// TestPadLineMatchesEncryptZero: the keystream replayed from a cached
// DomainPad base equals the oracle's (ciphertext of a zero line IS the
// pad).
func TestPadLineMatchesEncryptZero(t *testing.T) {
	e := testEngine()
	zero := make([]byte, LineSize)
	var s Scratch
	var base [MaskBaseSize]byte
	f := func(guaddr, counter uint64, lineIdx uint32) bool {
		tw := Tweak{GUAddr: guaddr, Line: lineIdx, Counter: counter}
		got := padLine(e, tw, base[:], &s)
		return bytes.Equal(got[:], encryptLine(e, tw, zero))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncryptLineIntoMatchesEncryptLine: the zero-alloc kernel is
// byte-identical to the oracle, including in-place (aliased) use.
func TestEncryptLineIntoMatchesEncryptLine(t *testing.T) {
	e := testEngine()
	var s Scratch
	var base [MaskBaseSize]byte
	tw := Tweak{GUAddr: 0xABC, Line: 9, Counter: 1234}
	pt := line(5)

	want := encryptLine(e, tw, pt)
	dst := make([]byte, LineSize)
	encryptLineInto(e, tw, pt, dst, base[:], &s)
	if !bytes.Equal(dst, want) {
		t.Fatal("base→pad→XORLine differs from XORPad")
	}

	back := make([]byte, LineSize)
	encryptLineInto(e, tw, dst, back, base[:], &s)
	if !bytes.Equal(back, pt) {
		t.Fatal("decrypt round trip failed")
	}

	// In-place: src and dst alias.
	buf := append([]byte(nil), pt...)
	encryptLineInto(e, tw, buf, buf, base[:], &s)
	if !bytes.Equal(buf, want) {
		t.Fatal("aliased XORLine differs from XORPad")
	}
}

func TestEncryptLineIntoPanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short line")
		}
	}()
	var s Scratch
	var base [MaskBaseSize]byte
	encryptLineInto(testEngine(), Tweak{}, make([]byte, 10), make([]byte, LineSize), base[:], &s)
}

// TestLineMACBufMatchesLineMAC: scratch-buffer MAC equals the allocating one.
func TestLineMACBufMatchesLineMAC(t *testing.T) {
	e := testEngine()
	var s Scratch
	f := func(guaddr, counter uint64, lineIdx uint32, seed byte) bool {
		tw := Tweak{GUAddr: guaddr, Line: lineIdx, Counter: counter}
		ct := encryptLine(e, tw, line(seed))
		return e.LineMACBuf(tw, ct, &s) == e.LineMAC(tw, ct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNodeMACBatchMatchesNodeMAC: a batch of mixed-arity jobs produces
// exactly the per-job NodeMAC values, and the scratch is reusable.
func TestNodeMACBatchMatchesNodeMAC(t *testing.T) {
	e := testEngine()
	var s Scratch
	const guaddr = 0x700
	jobs := []NodeMACJob{
		{NodeID: 0, ParentCounter: 9, Arity: 4, Packed: []uint64{1, 2}},
		{NodeID: 17, ParentCounter: 0, Arity: 1, Packed: []uint64{5, 0x7}},
		{NodeID: 2, ParentCounter: 1 << 40, Arity: 8, Packed: []uint64{0, 0, 7}},
		{NodeID: 3, ParentCounter: 12, Arity: 0, Packed: nil},
		{NodeID: 4, ParentCounter: 12, Arity: 64, Packed: make([]uint64, 17)},
	}
	out := make([]uint64, len(jobs))
	for round := 0; round < 3; round++ { // reuse the same scratch
		e.NodeMACBatch(guaddr, jobs, out, &s)
		for i, j := range jobs {
			want := e.NodeMAC(guaddr, j.NodeID, j.ParentCounter, j.Arity, j.Packed)
			if out[i] != want {
				t.Fatalf("round %d job %d: batch %#x, want %#x", round, i, out[i], want)
			}
		}
	}
	// Empty batch is a no-op.
	e.NodeMACBatch(guaddr, nil, nil, &s)

	// Any single job, any inputs.
	f := func(guaddr, parent uint64, nodeID uint32, arity uint8, packed []uint64) bool {
		job := []NodeMACJob{{NodeID: nodeID, ParentCounter: parent, Arity: uint64(arity), Packed: packed}}
		e.NodeMACBatch(guaddr, job, out, &s)
		return out[0] == e.NodeMAC(guaddr, nodeID, parent, uint64(arity), packed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeHashBatchMatchesNodeMAC: the unmasked hash batch plus a
// separately derived mask reconstructs NodeMAC exactly — the contract the
// tree's mask cache relies on.
func TestNodeHashBatchMatchesNodeMAC(t *testing.T) {
	e := testEngine()
	var s Scratch
	const guaddr = 0x900
	jobs := []NodeMACJob{
		{NodeID: 5, ParentCounter: 3, Arity: 4, Packed: []uint64{9, 0x20001}},
		{NodeID: 1 << 24, ParentCounter: 0, Arity: 64, Packed: make([]uint64, 17)},
	}
	out := make([]uint64, len(jobs))
	e.NodeHashBatch(jobs, out, &s)
	for i, j := range jobs {
		var base [16]byte
		e.MaskBaseInto(guaddr, j.NodeID, DomainNodeMAC, base[:], &s)
		mac := out[i] ^ e.MaskFromBase(base[:], j.ParentCounter, &s)
		want := e.NodeMAC(guaddr, j.NodeID, j.ParentCounter, j.Arity, j.Packed)
		if mac != want {
			t.Fatalf("job %d: hash^mask = %#x, want %#x", i, mac, want)
		}
	}
}

// TestMaskFromBaseMatchesLineMAC: LineHash plus a mask replayed from a
// cached DomainLineMAC base equals LineMAC — the engine's per-line mask
// cache contract.
func TestMaskFromBaseMatchesLineMAC(t *testing.T) {
	e := testEngine()
	var s Scratch
	f := func(guaddr, counter uint64, lineIdx uint32, seed byte) bool {
		tw := Tweak{GUAddr: guaddr, Line: lineIdx, Counter: counter}
		ct := encryptLine(e, tw, line(seed))
		var base [16]byte
		e.MaskBaseInto(guaddr, lineIdx, DomainLineMAC, base[:], &s)
		got := e.LineHash(ct, &s) ^ e.MaskFromBase(base[:], counter, &s)
		return got == e.LineMAC(tw, ct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestScratchPathsAllocFree: the scratch kernels are allocation-free
// once the scratch is warm — the hardware data path they model does not
// call malloc per memory access.
func TestScratchPathsAllocFree(t *testing.T) {
	e := testEngine()
	var s Scratch
	tw := Tweak{GUAddr: 1, Line: 2, Counter: 3}
	buf := line(0)
	jobs := []NodeMACJob{
		{NodeID: 0, ParentCounter: 9, Arity: 4, Packed: []uint64{1, 2}},
		{NodeID: 1, ParentCounter: 9, Arity: 4, Packed: []uint64{5, 6}},
	}
	out := make([]uint64, len(jobs))
	var base [16]byte
	e.NodeMACBatch(1, jobs, out, &s) // warm polys

	var macSink uint64
	allocs := testing.AllocsPerRun(100, func() {
		encryptLineInto(e, tw, buf, buf, base[:], &s)
		macSink ^= e.LineMACBuf(tw, buf, &s)
		e.NodeMACBatch(1, jobs, out, &s)
		e.NodeHashBatch(jobs, out, &s)
		e.MaskBaseInto(1, 2, DomainLineMAC, base[:], &s)
		macSink ^= e.MaskFromBase(base[:], 3, &s)
		macSink ^= e.LineHash(buf, &s)
		macSink ^= e.NodeHash(9, 4, jobs[0].Packed)
	})
	if allocs != 0 {
		t.Fatalf("scratch paths allocated %.1f times per op, want 0", allocs)
	}
	_ = macSink
}
