package crypt

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"fmt"
	"testing"
)

// keyedEngine is an Engine with only its pad cipher set, to a raw AES key
// rather than one derived from an MMT key: what the known answers and the
// fuzz target need.
func keyedEngine(t testing.TB, key Key) *Engine {
	t.Helper()
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	return &Engine{block: block, rk: newPadKeys(key)}
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEncryptBlocksFIPS197: the Appendix C.1 example vector, alone, at
// every position of an eight- and a four-block group and in the
// single-block tail, through each loop.
func TestEncryptBlocksFIPS197(t *testing.T) {
	e := keyedEngine(t, Key(unhex(t, "000102030405060708090a0b0c0d0e0f")))
	pt := unhex(t, "00112233445566778899aabbccddeeff")
	want := unhex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	eachAESLoop(t, func(loop string) {
		for n := 1; n <= 19; n++ {
			src := bytes.Repeat(pt, n)
			dst := make([]byte, len(src))
			e.encryptBlocks(dst, src)
			if !bytes.Equal(dst, bytes.Repeat(want, n)) {
				t.Fatalf("%s loop, %d blocks: got %x, want %d × %x", loop, n, dst, n, want)
			}
		}
	})
}

// checkEncryptBlocks holds encryptBlocks, through each loop this build
// and CPU has (eachAESLoop), equal to crypto/aes block for block on n
// blocks of data (repeated to length), with source and destination at the
// given offsets mod 16 or — inPlace — the same bytes, and checks that
// nothing outside dst[:16n] is written.
func checkEncryptBlocks(t *testing.T, key Key, data []byte, n, srcOff, dstOff int, inPlace bool) {
	t.Helper()
	eachAESLoop(t, func(loop string) {
		checkEncryptLoop(t, loop, key, data, n, srcOff, dstOff, inPlace)
	})
}

func checkEncryptLoop(t *testing.T, loop string, key Key, data []byte, n, srcOff, dstOff int, inPlace bool) {
	t.Helper()
	e := keyedEngine(t, key)
	const guard = 0xA7
	srcBuf := make([]byte, srcOff+n*aes.BlockSize)
	src := srcBuf[srcOff:]
	for i := range src {
		src[i] = byte(i)
		if len(data) > 0 {
			src[i] ^= data[i%len(data)]
		}
	}
	want := make([]byte, len(src))
	for off := 0; off < len(src); off += aes.BlockSize {
		e.block.Encrypt(want[off:], src[off:])
	}
	dstBuf := bytes.Repeat([]byte{guard}, dstOff+len(src)+2*aes.BlockSize)
	dst := dstBuf[dstOff : dstOff+len(src)]
	if inPlace {
		copy(dst, src)
		src = dst
	}
	e.encryptBlocks(dst, src)
	if !bytes.Equal(dst, want) {
		t.Fatalf("%s loop, n=%d src+%d dst+%d inPlace=%v: differs from crypto/aes", loop, n, srcOff, dstOff, inPlace)
	}
	for i, b := range dstBuf {
		if (i < dstOff || i >= dstOff+len(dst)) && b != guard {
			t.Fatalf("%s loop, n=%d: byte %d outside the destination was written", loop, n, i-dstOff)
		}
	}
}

// FuzzEncryptBlocksVsStdlib: any key, any data, any block count up to 320
// and any pair of alignments — misalign's low nibble offsets the source,
// the next the destination, and bit 8 selects in-place — through every
// loop of the kernel. The seeds walk the block counts around its eight-
// and four-wide loops at every offset mod 16, apart and in place; plain
// `go test` runs them.
func FuzzEncryptBlocksVsStdlib(f *testing.F) {
	for _, n := range []uint16{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 63, 64, 65, 71, 72, 320} {
		for off := uint16(0); off < aes.BlockSize; off++ {
			f.Add([]byte("blocks"), []byte{byte(n), byte(off)}, n, off|(off*7+3)%aes.BlockSize<<4)
			f.Add([]byte("blocks"), []byte{byte(n), byte(off)}, n, off<<4|1<<8)
		}
	}
	f.Fuzz(func(t *testing.T, key, data []byte, n, misalign uint16) {
		var k Key
		copy(k[:], key)
		checkEncryptBlocks(t, k, data, int(n%321), int(misalign&15), int(misalign>>4&15), misalign>>8&1 != 0)
	})
}

// BenchmarkEncryptBlocks: the kernel at the block counts its callers hand
// it (one base, a line's pad, a line's keys, 8 and 16 around the VAES
// loop, a group's bases, a group's keys), through the loop init chose; the
// rows named after a loop run 320 blocks through that loop.
func BenchmarkEncryptBlocks(b *testing.B) {
	e := benchEngine(b)
	run := func(n int) func(b *testing.B) {
		buf := make([]byte, n*aes.BlockSize)
		return func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				e.encryptBlocks(buf, buf)
			}
		}
	}
	for _, n := range []int{1, 2, 5, 8, 16, 64, 320} {
		b.Run(fmt.Sprint(n), run(n))
	}
	eachAESLoop(b, func(loop string) { b.Run(loop+"/320", run(320)) })
}

// BenchmarkBlockEncrypt is the baseline BenchmarkEncryptBlocks replaces:
// the same blocks, one cipher.Block call each.
func BenchmarkBlockEncrypt(b *testing.B) {
	e := benchEngine(b)
	buf := make([]byte, 320*aes.BlockSize)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(buf); off += aes.BlockSize {
			e.block.Encrypt(buf[off:off+aes.BlockSize], buf[off:off+aes.BlockSize])
		}
	}
}
