package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"

	"mmt/internal/crypt"
)

func sampleClosure() *Closure {
	return &Closure{
		Mode:        OwnershipTransfer,
		GUAddrHint:  0xABCDEF,
		CounterHint: 42,
		SealedRoot:  []byte{1, 2, 3, 4},
		TreeNodes:   bytes.Repeat([]byte{9}, 100),
		LineMACs:    []uint64{11, 22, 33},
		Data:        bytes.Repeat([]byte{7}, 256),
	}
}

func TestClosureEncodeDecodeRoundTrip(t *testing.T) {
	c := sampleClosure()
	wire := c.Encode()
	if len(wire) != c.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(wire), c.WireSize())
	}
	got, err := DecodeClosure(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != c.Mode || got.GUAddrHint != c.GUAddrHint || got.CounterHint != c.CounterHint {
		t.Fatal("header fields corrupted")
	}
	if !bytes.Equal(got.SealedRoot, c.SealedRoot) || !bytes.Equal(got.TreeNodes, c.TreeNodes) || !bytes.Equal(got.Data, c.Data) {
		t.Fatal("chunks corrupted")
	}
	if len(got.LineMACs) != 3 || got.LineMACs[1] != 22 {
		t.Fatal("line MACs corrupted")
	}
}

func TestMetadataSize(t *testing.T) {
	c := sampleClosure()
	if got := c.MetadataSize(); got != c.WireSize()-len(c.Data) {
		t.Fatalf("MetadataSize = %d", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     []byte("MM"),
		"bad magic": append([]byte("XXXX"), make([]byte, 40)...),
	}
	for name, wire := range cases {
		if _, err := DecodeClosure(wire); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	good := sampleClosure().Encode()
	mut := append([]byte(nil), good...)
	mut[4] = 99 // version
	if _, err := DecodeClosure(mut); err == nil {
		t.Error("bad version accepted")
	}
	mut = append([]byte(nil), good...)
	mut[5] = 77 // mode
	if _, err := DecodeClosure(mut); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := DecodeClosure(good[:len(good)-1]); err == nil {
		t.Error("truncated closure accepted")
	}
	if _, err := DecodeClosure(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDecodeRejectsOversizedChunkLength(t *testing.T) {
	wire := sampleClosure().Encode()
	// Corrupt the first chunk length (sealed root) to exceed the buffer.
	wire[headerSize] = 0xFF
	wire[headerSize+1] = 0xFF
	wire[headerSize+2] = 0xFF
	wire[headerSize+3] = 0x7F
	if _, err := DecodeClosure(wire); err == nil {
		t.Fatal("oversized chunk length accepted")
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(wire []byte) bool {
		_, _ = DecodeClosure(wire) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Also fuzz mutations of a valid closure.
	good := sampleClosure().Encode()
	g := func(pos uint16, val byte) bool {
		mut := append([]byte(nil), good...)
		mut[int(pos)%len(mut)] = val
		_, _ = DecodeClosure(mut)
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestClosureWireForm pins the closure wire form to the bytes the
// hand-written encoder produced (digest computed at the commit before the
// shared cursor) and runs the table over DecodeClosure: every truncation
// is ErrBadClosure; a byte flip at every 97th offset is ErrBadClosure or —
// decoding being structural only — a closure that re-encodes to exactly
// the flipped bytes.
func TestClosureWireForm(t *testing.T) {
	fill := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i)*7
		}
		return b
	}
	c := &Closure{Mode: OwnershipTransfer, GUAddrHint: 0x1000, CounterHint: 7,
		SealedRoot: fill(33, 0x71), TreeNodes: fill(120, 0x72), LineMACs: []uint64{5, 6, 0xFFFFFFFFFFFFFFFF}, Data: fill(192, 0x73)}
	wire := c.Encode()
	sum := sha256.Sum256(wire)
	if got := hex.EncodeToString(sum[:]); len(wire) != 407 || got != "1b386dc058c87a6d709a4c9ec48223002b7f0dc4f770cc55c926bd811778f0c9" {
		t.Fatalf("closure wire form drifted: %d bytes hashing to %s", len(wire), got)
	}
	for n := 0; n < len(wire); n++ {
		if got, err := DecodeClosure(wire[:n]); !errors.Is(err, ErrBadClosure) || got != nil {
			t.Fatalf("truncated to %d bytes: closure %v, err %v", n, got != nil, err)
		}
	}
	for off := 0; off < len(wire); off += 97 {
		mut := append([]byte(nil), wire...)
		mut[off] ^= 0x40
		got, err := DecodeClosure(mut)
		switch {
		case err != nil && (!errors.Is(err, ErrBadClosure) || got != nil):
			t.Fatalf("flip at %d: closure %v, err %v", off, got != nil, err)
		case err == nil && !bytes.Equal(got.Encode(), mut):
			t.Fatalf("flip at %d: accepted but re-encodes differently", off)
		}
	}
}

// FuzzDecodeClosure: DecodeClosure never panics on bytes off the wire; a
// reject is ErrBadClosure with no closure; an accept is structural only, so
// it re-encodes to exactly the input and WireSize agrees. The committed
// corpus is a closure BeginSend built over testGeo, that closure with each
// chunk length off by one either way, and its truncations at every chunk
// boundary.
func FuzzDecodeClosure(f *testing.F) {
	f.Fuzz(func(t *testing.T, wire []byte) {
		c, err := DecodeClosure(wire)
		if err != nil {
			if !errors.Is(err, ErrBadClosure) || c != nil {
				t.Fatalf("closure %v, err %v; want nil and ErrBadClosure", c != nil, err)
			}
			return
		}
		if !bytes.Equal(c.Encode(), wire) {
			t.Fatal("accepted input re-encodes differently")
		}
		if c.WireSize() != len(wire) {
			t.Fatalf("WireSize %d, input %d bytes", c.WireSize(), len(wire))
		}
	})
}

func TestSealUnsealRootRoundTrip(t *testing.T) {
	e := crypt.NewEngine(crypt.KeyFromBytes([]byte("root-key")))
	c := sampleClosure()
	r := rootPlain{GUAddr: c.GUAddrHint, Counter: c.CounterHint, Mode: c.Mode}
	sealRoot(e, c, r)
	got, err := unsealRoot(e, c)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("unsealed %+v, want %+v", got, r)
	}
}

func TestUnsealRootRejectsHintMismatch(t *testing.T) {
	e := crypt.NewEngine(crypt.KeyFromBytes([]byte("root-key")))
	c := sampleClosure()
	sealRoot(e, c, rootPlain{GUAddr: c.GUAddrHint, Counter: c.CounterHint, Mode: c.Mode})
	// An attacker who could somehow re-seal with mismatching hints would
	// still be caught; here we simulate by changing the hint after sealing
	// (which also breaks the AAD, so ErrAuth fires first — both paths are
	// rejections).
	c.GUAddrHint++
	if _, err := unsealRoot(e, c); err == nil {
		t.Fatal("hint mismatch accepted")
	}
}

func TestUnsealRootWrongEngine(t *testing.T) {
	e := crypt.NewEngine(crypt.KeyFromBytes([]byte("root-key")))
	c := sampleClosure()
	sealRoot(e, c, rootPlain{GUAddr: c.GUAddrHint, Counter: c.CounterHint, Mode: c.Mode})
	e2 := crypt.NewEngine(crypt.KeyFromBytes([]byte("other")))
	if _, err := unsealRoot(e2, c); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestCheckTransitionTable(t *testing.T) {
	allowed := []struct{ from, to State }{
		{StateInvalid, StateValid},
		{StateInvalid, StateWaiting},
		{StateValid, StateSending},
		{StateValid, StateInvalid},
		{StateSending, StateInvalid},
		{StateSending, StateValid},
		{StateWaiting, StateValid},
		{StateWaiting, StateInvalid},
	}
	for _, tr := range allowed {
		if err := checkTransition(tr.from, tr.to); err != nil {
			t.Errorf("%v -> %v rejected: %v", tr.from, tr.to, err)
		}
	}
	forbidden := []struct{ from, to State }{
		{StateInvalid, StateSending},
		{StateValid, StateWaiting},
		{StateWaiting, StateSending},
		{StateSending, StateWaiting},
	}
	for _, tr := range forbidden {
		if err := checkTransition(tr.from, tr.to); err == nil {
			t.Errorf("%v -> %v allowed", tr.from, tr.to)
		}
	}
}
