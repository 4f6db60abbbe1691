package crypt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testEngine() *Engine { return NewEngine(KeyFromBytes([]byte("test-key"))) }

// encryptLine is the reference line cipher: the oracle's XORPad over a
// copy. XOR is symmetric, so it decrypts too.
func encryptLine(e *Engine, tw Tweak, pt []byte) []byte {
	out := append([]byte(nil), pt...)
	e.XORPad(tw, out)
	return out
}

func line(fill byte) []byte {
	b := make([]byte, LineSize)
	for i := range b {
		b[i] = fill + byte(i)
	}
	return b
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := testEngine()
	tw := Tweak{GUAddr: 0x1234, Line: 7, Counter: 42}
	pt := line(3)
	ct := encryptLine(e, tw, pt)
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	back := encryptLine(e, tw, ct)
	if !bytes.Equal(back, pt) {
		t.Fatal("round trip failed")
	}
}

func TestEncryptRoundTripProperty(t *testing.T) {
	e := testEngine()
	f := func(guaddr, counter uint64, lineIdx uint32, seed byte) bool {
		tw := Tweak{GUAddr: guaddr, Line: lineIdx, Counter: counter}
		pt := line(seed)
		return bytes.Equal(encryptLine(e, tw, encryptLine(e, tw, pt)), pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctTweaksGiveDistinctPads(t *testing.T) {
	e := testEngine()
	zero := make([]byte, LineSize) // ciphertext of zero plaintext IS the pad
	base := Tweak{GUAddr: 10, Line: 2, Counter: 5}
	pads := map[string]Tweak{}
	variants := []Tweak{
		base,
		{GUAddr: 11, Line: 2, Counter: 5},
		{GUAddr: 10, Line: 3, Counter: 5},
		{GUAddr: 10, Line: 2, Counter: 6},
		{GUAddr: 10, Line: 2, Counter: 5 | 1<<40},
	}
	for _, tw := range variants {
		p := string(encryptLine(e, tw, zero))
		if prev, dup := pads[p]; dup {
			t.Fatalf("tweaks %+v and %+v produced the same pad", prev, tw)
		}
		pads[p] = tw
	}
}

func TestDifferentKeysDifferentCiphertext(t *testing.T) {
	a := NewEngine(KeyFromBytes([]byte("a")))
	b := NewEngine(KeyFromBytes([]byte("b")))
	tw := Tweak{GUAddr: 1, Line: 1, Counter: 1}
	pt := line(9)
	if bytes.Equal(encryptLine(a, tw, pt), encryptLine(b, tw, pt)) {
		t.Fatal("two keys produced identical ciphertext")
	}
}

func TestSameKeySameEngineDeterministic(t *testing.T) {
	k := KeyFromBytes([]byte("same key"))
	tw := Tweak{GUAddr: 77, Line: 3, Counter: 9}
	pt := line(1)
	c1 := encryptLine(NewEngine(k), tw, pt)
	c2 := encryptLine(NewEngine(k), tw, pt)
	if !bytes.Equal(c1, c2) {
		t.Fatal("same key+tweak not deterministic — remote node could not decrypt")
	}
}

func TestEncryptLinePanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short line")
		}
	}()
	testEngine().XORPad(Tweak{}, make([]byte, 10))
}

func TestLineMACDetectsTampering(t *testing.T) {
	e := testEngine()
	tw := Tweak{GUAddr: 5, Line: 1, Counter: 3}
	ct := encryptLine(e, tw, line(0))
	mac := e.LineMAC(tw, ct)
	if e.LineMACBuf(tw, ct, &Scratch{}) != mac {
		t.Fatal("LineMACBuf differs from LineMAC on the untampered line")
	}
	// Every byte of the line is authenticated, by the oracle and by the
	// scratch kernel alike.
	mut := make([]byte, len(ct))
	for i := range ct {
		for _, bit := range []byte{0x01, 0x80} {
			copy(mut, ct)
			mut[i] ^= bit
			if e.LineMAC(tw, mut) == mac {
				t.Fatalf("flipping %#x in byte %d did not change LineMAC", bit, i)
			}
			if e.LineMACBuf(tw, mut, &Scratch{}) == mac {
				t.Fatalf("flipping %#x in byte %d did not change LineMACBuf", bit, i)
			}
		}
	}
	// Anything but a whole line is refused: a length that is not a
	// multiple of eight would leave its last bytes out of the MAC.
	for name, mac := range map[string]func(){
		"LineMAC":    func() { e.LineMAC(tw, ct[:13]) },
		"LineMACBuf": func() { e.LineMACBuf(tw, ct[:13], &Scratch{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a 13-byte input", name)
				}
			}()
			mac()
		}()
	}
}

func TestLineMACBindsCounter(t *testing.T) {
	// The replay defence: the same ciphertext at an older counter must not
	// verify under the new counter's MAC.
	e := testEngine()
	ct := encryptLine(e, Tweak{GUAddr: 5, Counter: 3}, line(0))
	if e.LineMAC(Tweak{GUAddr: 5, Counter: 3}, ct) == e.LineMAC(Tweak{GUAddr: 5, Counter: 4}, ct) {
		t.Fatal("LineMAC does not depend on the counter — replayable")
	}
}

func TestLineMACBindsAddress(t *testing.T) {
	// The splicing defence: moving a line to another address must not verify.
	e := testEngine()
	ct := encryptLine(e, Tweak{GUAddr: 5, Counter: 3}, line(0))
	if e.LineMAC(Tweak{GUAddr: 5, Counter: 3}, ct) == e.LineMAC(Tweak{GUAddr: 6, Counter: 3}, ct) {
		t.Fatal("LineMAC does not depend on the address — spliceable")
	}
	if e.LineMAC(Tweak{GUAddr: 5, Line: 0, Counter: 3}, ct) == e.LineMAC(Tweak{GUAddr: 5, Line: 1, Counter: 3}, ct) {
		t.Fatal("LineMAC does not depend on the line index")
	}
}

func TestNodeMACDetectsCounterTampering(t *testing.T) {
	e := testEngine()
	// packed counter plane of an 8-ary node: global word + two words of
	// four 16-bit local fields each.
	packed := []uint64{1, 0x0004000300020001, 0x0008000700060005}
	mac := e.NodeMAC(100, 2, 9, 8, packed)
	for w := range packed {
		for bit := 0; bit < 64; bit += 16 { // flip every local field + global bits
			mut := make([]uint64, len(packed))
			copy(mut, packed)
			mut[w] ^= 1 << uint(bit)
			if e.NodeMAC(100, 2, 9, 8, mut) == mac {
				t.Fatalf("flipping word %d bit %d did not change NodeMAC", w, bit)
			}
		}
	}
	if e.NodeMAC(100, 2, 10, 8, packed) == mac {
		t.Fatal("NodeMAC ignores parent counter — child replayable")
	}
	if e.NodeMAC(101, 2, 9, 8, packed) == mac {
		t.Fatal("NodeMAC ignores address")
	}
	if e.NodeMAC(100, 3, 9, 8, packed) == mac {
		t.Fatal("NodeMAC ignores node id")
	}
}

func TestNodeMACArityBinding(t *testing.T) {
	// Two nodes of different arity can share a packed image (trailing
	// zero locals pack away); the arity word must still separate them.
	e := testEngine()
	packed := []uint64{5, 0}
	a := e.NodeMAC(1, 1, 0, 1, packed)
	b := e.NodeMAC(1, 1, 0, 4, packed)
	if a == b {
		t.Fatal("NodeMAC does not bind the node arity")
	}
}

// TestNodeMACKAT pins the node-MAC definition across binaries: snapshots
// carry node MACs verbatim, so a silent change to the hash layout (packed
// words, arity/parent header, mask domain) would orphan every snapshot
// written by an older build. Values generated by this test's own failure
// output at the time the packed layout landed.
func TestNodeMACKAT(t *testing.T) {
	e := NewEngine(KeyFromBytes([]byte("kat-key")))
	packed := []uint64{3, 0x0004000300020001}
	got := e.NodeMAC(0x1000, 1<<24|2, 7, 4, packed)
	const want = uint64(0xef14821b105af892)
	if got != want {
		t.Fatalf("NodeMAC KAT drifted: got %#x, want %#x", got, want)
	}
	ct := encryptLine(e, Tweak{GUAddr: 0x1000, Line: 2, Counter: 7}, line(1))
	gotLine := e.LineMAC(Tweak{GUAddr: 0x1000, Line: 2, Counter: 7}, ct)
	const wantLine = uint64(0x950d829ba287c6f1)
	if gotLine != wantLine {
		t.Fatalf("LineMAC KAT drifted: got %#x, want %#x", gotLine, wantLine)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	e := testEngine()
	aad := []byte("root-metadata")
	pt := []byte("the MMT root value")
	box := e.Seal(7, aad, pt)
	if len(box) != len(pt)+e.seal.Overhead() {
		t.Fatalf("sealed size %d, want %d", len(box), len(pt)+e.seal.Overhead())
	}
	got, err := e.Unseal(7, aad, box)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("unseal returned wrong plaintext")
	}
}

func TestUnsealRejectsTamper(t *testing.T) {
	e := testEngine()
	box := e.Seal(7, []byte("aad"), []byte("secret"))
	cases := map[string]func() ([]byte, error){
		"flipped ciphertext bit": func() ([]byte, error) {
			mut := append([]byte(nil), box...)
			mut[0] ^= 1
			return e.Unseal(7, []byte("aad"), mut)
		},
		"wrong aad": func() ([]byte, error) {
			return e.Unseal(7, []byte("AAD"), box)
		},
		"wrong unique (replayed at other version)": func() ([]byte, error) {
			return e.Unseal(8, []byte("aad"), box)
		},
		"wrong key": func() ([]byte, error) {
			return NewEngine(KeyFromBytes([]byte("other"))).Unseal(7, []byte("aad"), box)
		},
		"truncated": func() ([]byte, error) {
			return e.Unseal(7, []byte("aad"), box[:len(box)-1])
		},
	}
	for name, f := range cases {
		if _, err := f(); err != ErrAuth {
			t.Errorf("%s: err = %v, want ErrAuth", name, err)
		}
	}
}

func TestKeyFromBytesDeterministic(t *testing.T) {
	if KeyFromBytes([]byte("x")) != KeyFromBytes([]byte("x")) {
		t.Fatal("KeyFromBytes not deterministic")
	}
	if KeyFromBytes([]byte("x")) == KeyFromBytes([]byte("y")) {
		t.Fatal("KeyFromBytes collision on different seeds")
	}
}

func TestKeyStringDoesNotLeakWholeKey(t *testing.T) {
	k := KeyFromBytes([]byte("secret"))
	s := k.String()
	if len(s) > 20 {
		t.Fatalf("Key.String() too revealing: %q", s)
	}
}

func BenchmarkEncryptLine(b *testing.B) {
	e := testEngine()
	pt := line(0)
	tw := Tweak{GUAddr: 1, Counter: 1}
	b.SetBytes(LineSize)
	for i := 0; i < b.N; i++ {
		tw.Counter++
		e.XORPad(tw, pt)
	}
}

func BenchmarkLineMAC(b *testing.B) {
	e := testEngine()
	ct := encryptLine(e, Tweak{GUAddr: 1, Counter: 1}, line(0))
	b.SetBytes(LineSize)
	for i := 0; i < b.N; i++ {
		e.LineMAC(Tweak{GUAddr: 1, Counter: uint64(i)}, ct)
	}
}
