package crypt

import (
	"bytes"
	"slices"
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

// batchTweaks is n line tweaks of one region with mixed counters: zero,
// small, a value with every byte set, and past 2^32.
func batchTweaks(n int) []Tweak {
	tws := make([]Tweak, n)
	for i := range tws {
		tws[i] = Tweak{GUAddr: 0xC0FFEE, Line: uint32(1000 + i), Counter: []uint64{0, uint64(i), 0x0807060504030201, 1<<40 + uint64(i)}[i%4]}
	}
	return tws
}

// TestLineBasesMatchesOracle / TestLineKeysMatchesOracle: the run kernels
// the engine's line planes are filled by — bases for n consecutive lines,
// then pad and mask block for each at its own counter, in place — equal
// the oracle's tweakBase, XORPad and LineMAC, for a run of one and of 64
// (and, for the keys, of two and 65: a VAES group split across lines).
func TestLineBasesMatchesOracle(t *testing.T) {
	e := testEngine()
	for _, n := range []int{1, 64} {
		tws := batchTweaks(n)
		bases := make([]byte, n*LineBasesSize)
		e.LineBases(tws[0].GUAddr, tws[0].Line, bases)
		for i, tw := range tws {
			pad, mac := e.tweakBase(tw.GUAddr, tw.Line, DomainPad), e.tweakBase(tw.GUAddr, tw.Line, DomainLineMAC)
			if b := bases[i*LineBasesSize:]; !bytes.Equal(b[:MaskBaseSize], pad[:]) || !bytes.Equal(b[MaskBaseSize:LineBasesSize], mac[:]) {
				t.Fatalf("n=%d: bases of line %d differ from tweakBase", n, i)
			}
		}
	}
}

func TestLineKeysMatchesOracle(t *testing.T) {
	e := testEngine()
	for _, n := range []int{1, 2, 64, 65} {
		tws := batchTweaks(n)
		bases, keys, ctrs := make([]byte, n*LineBasesSize), make([]byte, n*LineKeysSize), make([]uint64, n)
		for i, tw := range tws {
			ctrs[i] = tw.Counter
		}
		e.LineBases(tws[0].GUAddr, tws[0].Line, bases)
		e.LineKeys(bases, ctrs, keys)
		for i, tw := range tws {
			k := keys[i*LineKeysSize : (i+1)*LineKeysSize]
			ct := encryptLine(e, tw, line(byte(i)))
			if !bytes.Equal(k[:LineSize], encryptLine(e, tw, make([]byte, LineSize))) {
				t.Fatalf("n=%d: pad of line %d differs from XORPad", n, i)
			}
			if got := e.LineHash(ct, nil) ^ Mask(k[LineSize:]); got != e.LineMAC(tw, ct) {
				t.Fatalf("n=%d: line %d hash^mask = %#x, want LineMAC %#x", n, i, got, e.LineMAC(tw, ct))
			}
		}
	}
}

// TestMaskBasesMatchesOracle / TestMasksFromBasesMatchesOracle: the two
// levels of a batch of masks — bases of n ids of one domain, then the masks
// from them in place at n counters — equal the oracle's tweakBase, NodeMAC
// and LineMAC, for a batch of one and of 64.
func TestMaskBasesMatchesOracle(t *testing.T) {
	e := testEngine()
	for _, n := range []int{1, 64} {
		tws := batchTweaks(n)
		ids, blk := make([]uint32, n), make([]byte, n*MaskBaseSize)
		for i, tw := range tws {
			ids[i] = tw.Line ^ uint32(i)<<24 // not consecutive: node ids carry the level on top
		}
		for _, domain := range []byte{DomainNodeMAC, DomainLineMAC} {
			e.MaskBases(tws[0].GUAddr, domain, ids, blk)
			for i, id := range ids {
				if want := e.tweakBase(tws[0].GUAddr, id, domain); !bytes.Equal(blk[i*MaskBaseSize:(i+1)*MaskBaseSize], want[:]) {
					t.Fatalf("n=%d domain %#x: base %d differs from tweakBase", n, domain, i)
				}
			}
		}
	}
}

func TestMasksFromBasesMatchesOracle(t *testing.T) {
	e := testEngine()
	for _, n := range []int{1, 64} {
		tws := batchTweaks(n)
		ids, ctrs, blk := make([]uint32, n), make([]uint64, n), make([]byte, n*MaskBaseSize)
		for i, tw := range tws {
			ids[i], ctrs[i] = tw.Line, tw.Counter
		}
		e.MaskBases(tws[0].GUAddr, DomainNodeMAC, ids, blk)
		e.MasksFromBases(blk, ctrs)
		packed := []uint64{9, 0x20001}
		for i, tw := range tws {
			if got, want := e.NodeHash(tw.Counter, 4, packed)^Mask(blk[i*MaskBaseSize:]), e.NodeMAC(tw.GUAddr, tw.Line, tw.Counter, 4, packed); got != want {
				t.Fatalf("n=%d: node %d hash^mask = %#x, want NodeMAC %#x", n, i, got, want)
			}
		}
		e.MaskBases(tws[0].GUAddr, DomainLineMAC, ids, blk)
		e.MasksFromBases(blk, ctrs)
		for i, tw := range tws {
			ct := line(byte(i))
			if got := e.LineHash(ct, nil) ^ Mask(blk[i*MaskBaseSize:]); got != e.LineMAC(tw, ct) {
				t.Fatalf("n=%d: line %d hash^mask = %#x, want LineMAC %#x", n, i, got, e.LineMAC(tw, ct))
			}
		}
	}
}

// runKeys derives the key records of n consecutive lines at batchTweaks'
// counters, the way the engine's line planes hold them.
func runKeys(e *Engine, tws []Tweak) (keys []byte) {
	bases, ctrs := make([]byte, len(tws)*LineBasesSize), make([]uint64, len(tws))
	for i, tw := range tws {
		ctrs[i] = tw.Counter
	}
	keys = make([]byte, len(tws)*LineKeysSize)
	e.LineBases(tws[0].GUAddr, tws[0].Line, bases)
	e.LineKeys(bases, ctrs, keys)
	return keys
}

// TestSealOpenLinesMatchOracle: the run kernels of the line data path —
// SealLines on the way in, OpenLines on the way out — equal the oracle's
// XORPad and LineMAC line by line, for no line, one, two, and a 64-line
// run with its ragged neighbours; sealing in place (ct == src, as Enable
// does) gives the same bytes.
func TestSealOpenLinesMatchOracle(t *testing.T) {
	e := testEngine()
	for _, n := range []int{0, 1, 2, 63, 64, 65} {
		tws := batchTweaks(max(n, 1))[:n]
		src := make([]byte, n*LineSize)
		for i := range src {
			src[i] = byte(i*13 + n)
		}
		var keys []byte
		if n > 0 {
			keys = runKeys(e, tws)
		}
		ct, macs := make([]byte, len(src)), make([]uint64, n)
		e.SealLines(ct, src, keys, macs)
		for i, tw := range tws {
			want := encryptLine(e, tw, src[i*LineSize:(i+1)*LineSize])
			if got := ct[i*LineSize : (i+1)*LineSize]; !bytes.Equal(got, want) || macs[i] != e.LineMAC(tw, got) {
				t.Fatalf("n=%d: SealLines line %d differs from XORPad/LineMAC", n, i)
			}
		}
		inPlace, macs2 := bytes.Clone(src), make([]uint64, n)
		e.SealLines(inPlace, inPlace, keys, macs2)
		if !bytes.Equal(inPlace, ct) || !slices.Equal(macs2, macs) {
			t.Fatalf("n=%d: SealLines in place differs", n)
		}
		dst := make([]byte, len(src))
		if good := e.OpenLines(dst, ct, keys, macs); good != n || !bytes.Equal(dst, src) {
			t.Fatalf("n=%d: OpenLines = %d, plaintext equal %v; want a clean run", n, good, bytes.Equal(dst, src))
		}
	}
}

// TestOpenLinesStopsAtFirstBadLine: one flipped bit — in a stored MAC or in
// the ciphertext — at the first, a middle or the last line of a 40-line
// run: OpenLines returns that line's index, has decrypted every line
// before it, and has written nothing from it on.
func TestOpenLinesStopsAtFirstBadLine(t *testing.T) {
	e := testEngine()
	const n = 40
	tws := batchTweaks(n)
	keys := runKeys(e, tws)
	src := make([]byte, n*LineSize)
	for i := range src {
		src[i] = byte(i * 31)
	}
	ct, macs := make([]byte, len(src)), make([]uint64, n)
	e.SealLines(ct, src, keys, macs)
	for _, bad := range []int{0, n / 2, n - 1} {
		for _, inMAC := range []bool{true, false} {
			ct, macs := bytes.Clone(ct), slices.Clone(macs)
			if inMAC {
				macs[bad] ^= 1 << 63
			} else {
				ct[bad*LineSize+LineSize-1] ^= 0x80
			}
			dst := bytes.Repeat([]byte{0xEE}, len(src))
			if good := e.OpenLines(dst, ct, keys, macs); good != bad {
				t.Fatalf("bad line %d (MAC %v): OpenLines = %d", bad, inMAC, good)
			}
			if !bytes.Equal(dst[:bad*LineSize], src[:bad*LineSize]) {
				t.Fatalf("bad line %d (MAC %v): the lines before it were not delivered", bad, inMAC)
			}
			if !bytes.Equal(dst[bad*LineSize:], bytes.Repeat([]byte{0xEE}, (n-bad)*LineSize)) {
				t.Fatalf("bad line %d (MAC %v): dst written at or past the bad line", bad, inMAC)
			}
		}
	}
}

// TestCheckXORLinesSplitOpenLines: the two halves of OpenLines a pipelined read
// runs apart — CheckLines, the MAC check without decryption, and XORLines,
// the decryption without a check — agree with OpenLines and with the
// oracle's LineMAC and XORPad, for no line, one, and runs about a 64-line
// group, clean and with one bad MAC at the first, a middle or the last
// line. CheckLines writes nothing; XORLines decrypts in place too.
func TestCheckXORLinesSplitOpenLines(t *testing.T) {
	e := testEngine()
	for _, n := range []int{0, 1, 63, 64, 65} {
		tws := batchTweaks(max(n, 1))[:n]
		src := make([]byte, n*LineSize)
		for i := range src {
			src[i] = byte(i*29 + n)
		}
		var keys []byte
		if n > 0 {
			keys = runKeys(e, tws)
		}
		ct, macs := make([]byte, len(src)), make([]uint64, n)
		e.SealLines(ct, src, keys, macs)
		ctBefore := bytes.Clone(ct)
		if good := e.CheckLines(ct, keys, macs); good != n || !bytes.Equal(ct, ctBefore) {
			t.Fatalf("n=%d: CheckLines = %d on a clean run (ciphertext unchanged %v)", n, good, bytes.Equal(ct, ctBefore))
		}
		dst := make([]byte, len(src))
		XORLines(dst, ct, keys)
		for i, tw := range tws {
			want := bytes.Clone(ct[i*LineSize : (i+1)*LineSize])
			e.XORPad(tw, want)
			if !bytes.Equal(dst[i*LineSize:(i+1)*LineSize], want) || !bytes.Equal(want, src[i*LineSize:(i+1)*LineSize]) {
				t.Fatalf("n=%d: XORLines line %d differs from XORPad", n, i)
			}
		}
		inPlace := bytes.Clone(ct)
		if XORLines(inPlace, inPlace, keys); !bytes.Equal(inPlace, src) {
			t.Fatalf("n=%d: XORLines in place differs", n)
		}
		if n == 0 {
			continue
		}
		for _, bad := range []int{0, n / 2, n - 1} {
			macs := slices.Clone(macs)
			macs[bad] ^= 1
			opened := bytes.Repeat([]byte{0xEE}, len(src))
			want := e.OpenLines(opened, ct, keys, macs)
			if good := e.CheckLines(ct, keys, macs); good != bad || good != want {
				t.Fatalf("n=%d, bad line %d: CheckLines = %d, OpenLines = %d", n, bad, good, want)
			}
			if e.LineMAC(tws[bad], ct[bad*LineSize:(bad+1)*LineSize]) == macs[bad] {
				t.Fatalf("n=%d, bad line %d: the oracle accepts the flipped MAC", n, bad)
			}
			split := bytes.Repeat([]byte{0xEE}, len(src))
			XORLines(split[:bad*LineSize], ct, keys)
			if !bytes.Equal(split, opened) {
				t.Fatalf("n=%d, bad line %d: check then XOR of the lines before it differs from OpenLines", n, bad)
			}
		}
	}
}

// TestXORLinesKernel: xorLines — on amd64 the SSE2 kernel SealLines and
// XORLines call once per run, under purego the Go loop — equals xorLine
// line by line for 0…130 lines, with dst, src and keys each at its own
// offset mod 16, and in place. It writes nothing outside dst, and the
// mask block behind each keystream never reaches the output: inverting
// every mask block leaves the result as it was.
func TestXORLinesKernel(t *testing.T) {
	const guard = 0xA7
	for n := 0; n <= 130; n++ {
		for _, off := range []int{0, 1, 8, 15} {
			for _, inPlace := range []bool{false, true} {
				dOff, sOff, kOff := off, (off+5)%16, (off+11)%16
				src := make([]byte, sOff+n*LineSize)[sOff:]
				keys := make([]byte, kOff+n*LineKeysSize)[kOff:]
				for i := range src {
					src[i] = byte(i*31 + n)
				}
				for i := range keys {
					keys[i] = byte(i*7+off) ^ byte(i>>8)
				}
				want := make([]byte, len(src))
				for i := range n {
					xorLine((*[LineSize]byte)(want[i*LineSize:]), (*[LineSize]byte)(src[i*LineSize:]), (*[LineSize]byte)(keys[i*LineKeysSize:]))
				}
				for pass := range 2 {
					dstBuf := bytes.Repeat([]byte{guard}, dOff+len(src)+LineSize)
					dst := dstBuf[dOff : dOff+len(src)]
					in := src
					if inPlace {
						copy(dst, src)
						in = dst
					}
					xorLines(dst, in, keys, n)
					if !bytes.Equal(dst, want) {
						t.Fatalf("n=%d off=%d inPlace=%v pass %d: differs from xorLine", n, off, inPlace, pass)
					}
					for i, b := range dstBuf {
						if (i < dOff || i >= dOff+len(dst)) && b != guard {
							t.Fatalf("n=%d off=%d inPlace=%v: byte %d outside dst written", n, off, inPlace, i-dOff)
						}
					}
					for i := range n { // the second pass runs with every mask block inverted
						for j := LineSize; j < LineKeysSize; j++ {
							keys[i*LineKeysSize+j] ^= 0xFF
						}
					}
				}
			}
		}
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
	ids, ctrs := []uint32{7, 8, 1 << 24}, []uint64{3, 4, 5}
	blk, bases, keys := make([]byte, 3*MaskBaseSize), make([]byte, 3*LineBasesSize), make([]byte, 3*LineKeysSize)
	run, macs, bad := make([]byte, 3*LineSize), make([]uint64, 3), make([]uint64, 3)

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
		e.MaskBases(1, DomainNodeMAC, ids, blk)
		e.MasksFromBases(blk, ctrs)
		e.LineBases(1, 2, bases)
		e.LineKeys(bases, ctrs, keys)
		e.SealLines(run, run, keys, macs)
		macSink ^= uint64(e.OpenLines(run, run, keys, macs))
		macSink ^= uint64(e.OpenLines(run, run, keys, bad)) // stops at line 0
		macSink ^= uint64(e.CheckLines(run, keys, macs))
		XORLines(run, run, keys)
		macSink ^= Mask(blk) ^ Mask(keys[LineSize:])
	})
	if allocs != 0 {
		t.Fatalf("scratch paths allocated %.1f times per op, want 0", allocs)
	}
	_ = macSink
}
