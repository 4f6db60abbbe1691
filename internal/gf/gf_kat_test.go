package gf

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// gf_kat_test.go is the differential harness for the fast paths: every
// exported operation is checked against the retained bit-loop oracle
// (oracle.go), both on fuzz-style random inputs and on the pinned vectors
// in testdata/gf_kat.json. The KAT file was generated from the oracle
// before the table rewrite landed, so a bug in reduction-table
// construction (which init derives from the oracle in-process, and so
// could mask an oracle regression) cannot silently change MAC values.

type mulKAT struct {
	A, B, Want string
}

type evalKAT struct {
	Coeffs []string
	X      string
	Want   string
}

type katFile struct {
	Mul  []mulKAT
	Eval []evalKAT
}

func parseHex64(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		t.Fatalf("bad KAT hex %q: %v", s, err)
	}
	return v
}

func loadKAT(t *testing.T) *katFile {
	t.Helper()
	raw, err := os.ReadFile("testdata/gf_kat.json")
	if err != nil {
		t.Fatalf("read KAT file: %v", err)
	}
	var k katFile
	if err := json.Unmarshal(raw, &k); err != nil {
		t.Fatalf("parse KAT file: %v", err)
	}
	if len(k.Mul) == 0 || len(k.Eval) == 0 {
		t.Fatal("KAT file has no vectors")
	}
	return &k
}

func TestMulKAT(t *testing.T) {
	for i, v := range loadKAT(t).Mul {
		a, b, want := parseHex64(t, v.A), parseHex64(t, v.B), parseHex64(t, v.Want)
		if got := Mul(a, b); got != want {
			t.Errorf("Mul KAT %d: Mul(%#x, %#x) = %#x, want %#x", i, a, b, got, want)
		}
		if got := mulSlow(a, b); got != want {
			t.Errorf("oracle drifted from KAT %d: mulSlow(%#x, %#x) = %#x, want %#x", i, a, b, got, want)
		}
	}
}

func TestEvalKAT(t *testing.T) {
	for i, v := range loadKAT(t).Eval {
		coeffs := make([]uint64, len(v.Coeffs))
		for j, c := range v.Coeffs {
			coeffs[j] = parseHex64(t, c)
		}
		x, want := parseHex64(t, v.X), parseHex64(t, v.Want)
		if got := Eval(coeffs, x); got != want {
			t.Errorf("Eval KAT %d (len %d): got %#x, want %#x", i, len(coeffs), got, want)
		}
		if got := evalSlow(coeffs, x); got != want {
			t.Errorf("oracle drifted from Eval KAT %d: got %#x, want %#x", i, got, want)
		}
		m := NewMulx(x)
		if got := m.Eval(coeffs); got != want {
			t.Errorf("Mulx.Eval KAT %d (len %d): got %#x, want %#x", i, len(coeffs), got, want)
		}
	}
}

func TestMulMatchesOracle(t *testing.T) {
	f := func(a, b uint64) bool { return Mul(a, b) == mulSlow(a, b) }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Sparse/dense edge cases the generator rarely hits.
	edges := []uint64{0, 1, 2, reduction, 1 << 63, ^uint64(0), 0x8000000000000001}
	for _, a := range edges {
		for _, b := range edges {
			if Mul(a, b) != mulSlow(a, b) {
				t.Fatalf("Mul(%#x, %#x) disagrees with oracle", a, b)
			}
		}
	}
}

func TestDotMatchesOracle(t *testing.T) {
	f := func(a, b []uint64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		var want uint64
		for i := 0; i < n; i++ {
			want ^= mulSlow(a[i], b[i])
		}
		return Dot(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalMatchesOracle(t *testing.T) {
	f := func(coeffs []uint64, x uint64) bool { return Eval(coeffs, x) == evalSlow(coeffs, x) }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Every length up to a 64-ary leaf's 17 packed words.
	seed := uint64(0x5DEECE66D)
	coeffs := make([]uint64, 0, 17)
	for len(coeffs) < cap(coeffs) {
		seed = seed*6364136223846793005 + 1442695040888963407
		coeffs = append(coeffs, seed)
		x := seed ^ 0xA5A5A5A5A5A5A5A5
		if Eval(coeffs, x) != evalSlow(coeffs, x) {
			t.Fatalf("Eval disagrees with oracle at len %d", len(coeffs))
		}
	}
}

func TestReductionTablesMatchOracle(t *testing.T) {
	// red4 entries are definitionally reduceSlow(o, 0); re-derive via
	// mulSlow to cross-check through an independent oracle path:
	// o·x^64 = (o<<60)·x^4 ... except o<<60 overflows, so use
	// (o<<32)·(1<<32) which stays in range.
	for o := uint64(0); o < 16; o++ {
		if want := mulSlow(o<<32, 1<<32); red4[o] != want {
			t.Fatalf("red4[%d] = %#x, want %#x", o, red4[o], want)
		}
	}
}

func TestEvalBatchMatchesEval(t *testing.T) {
	x := uint64(0xC3A5C85C97CB3127)
	m := NewMulx(x)
	f := func(polys [][]uint64) bool {
		out := make([]uint64, len(polys))
		m.EvalBatch(polys, out)
		for j, p := range polys {
			if out[j] != evalSlow(p, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulOracle(b *testing.B) {
	x, y := uint64(0xDEADBEEFCAFEBABE), uint64(0x0123456789ABCDEF)
	for i := 0; i < b.N; i++ {
		x = mulSlow(x, y)
	}
	sink = x
}

func BenchmarkEval(b *testing.B) {
	coeffs := make([]uint64, 9) // line-MAC polynomial length
	for i := range coeffs {
		coeffs[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	x := uint64(0xC3A5C85C97CB3127)
	var acc uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc ^= Eval(coeffs, x)
	}
	sink = acc
}

func BenchmarkNewMulx(b *testing.B) {
	var m *Mulx
	for i := 0; i < b.N; i++ {
		m = NewMulx(uint64(i) | 1)
	}
	sink = m.Mul(1)
}
