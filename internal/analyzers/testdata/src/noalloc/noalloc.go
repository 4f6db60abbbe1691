// Package noalloc exercises the noalloc analyzer: //mmt:hotpath
// functions (and everything they statically call in the module) must be
// free of allocation sites on every path that can reach a success exit.
package noalloc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var errBad = errors.New("bad")

// hotMake allocates unconditionally on the hot path.
//mmt:hotpath
func hotMake(n int) []byte {
	buf := make([]byte, n) // want "make allocates"
	return buf
}

// coldAlloc allocates only en route to an error return: the hardware
// never takes tamper paths in steady state, so the block is cold and the
// analyzer stays silent.
//mmt:hotpath
func coldAlloc(ok bool) ([]byte, error) {
	if !ok {
		detail := make([]byte, 8)
		detail[0] = 1
		return detail, errBad
	}
	return nil, nil
}

// hotGuard's allocation feeds a panic: panic-only blocks are cold too.
//mmt:hotpath
func hotGuard(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("negative %d", n))
	}
	return n
}

// helper is not annotated, but hotCallsHelper reaches it statically, so
// its allocation is a finding attributed to the helper.
func helper(n int) []int {
	out := make([]int, n) // want "make allocates"
	return out
}

//mmt:hotpath
func hotCallsHelper(n int) int {
	return len(helper(n))
}

// amortized grows a table; callers vouch for the amortization by
// suppressing the call site, which prunes the traversal.
func amortized(n int) []int {
	return make([]int, n)
}

//mmt:hotpath
func hotSuppressedCallee(n int) int {
	//mmt:allow noalloc: amortized growth, cross-checked by benchmarks
	return len(amortized(n))
}

// scratch is the caller-owned buffer idiom: appending into a [:0]
// reslice fills capacity reserved elsewhere and is exempt.
type scratch struct {
	buf []uint64
}

//mmt:hotpath
func fill(s *scratch, xs []uint64) uint64 {
	w := s.buf[:0]
	for _, x := range xs {
		w = append(w, x)
	}
	var sum uint64
	for _, v := range w {
		sum += v
	}
	return sum
}

// hotAppend appends into an unreserved slice — may grow.
//mmt:hotpath
func hotAppend(dst []int, v int) []int {
	dst = append(dst, v) // want "append may grow and allocate"
	return dst
}

// hotMapWrite may rehash.
//mmt:hotpath
func hotMapWrite(m map[int]int, k int) {
	m[k] = 1 // want "map assignment may rehash and allocate"
}

// hotClosure captures n, which forces a heap-allocated closure.
//mmt:hotpath
func hotClosure(n int) func() int {
	return func() int { return n } // want "closure captures outer variables"
}

// hotGo spawns a goroutine.
//mmt:hotpath
func hotGo(ch chan int) {
	go send(ch) // want "go statement allocates"
}

func send(ch chan int) { ch <- 1 }

// hotConcat builds a new string.
//mmt:hotpath
func hotConcat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

// hotConv copies the string into fresh storage.
//mmt:hotpath
func hotConv(s string) []byte {
	return []byte(s) // want "conversion .* allocates"
}

// hotBox stores a non-pointer concrete value in an interface.
//mmt:hotpath
func hotBox(v int) any {
	return v // want "storing int in an interface allocates"
}

// hotStdlib calls outside the allocation-free whitelist are findings;
// whitelisted packages (encoding/binary here) pass silently.
//mmt:hotpath
func hotStdlib(b []byte, v int) string {
	_ = binary.LittleEndian.Uint64(b)
	return fmt.Sprintf("%d", v) // want "call to fmt.Sprintf may allocate"
}

// checkpointFlush is declared cold: checkpoint I/O runs off the critical
// path, so the traversal never descends into it — no call-site
// suppression needed at its hot callers.
//mmt:coldpath
func checkpointFlush(n int) []byte {
	return make([]byte, n)
}

//mmt:hotpath
func hotCallsColdpath(n int) int {
	return len(checkpointFlush(n))
}

// hotSwitch leaves its loop by a labelled break from inside a switch. The
// case that fails allocates en route to an error return and is cold; the
// append after the loop, which the break reaches, is hot.
//mmt:hotpath
func hotSwitch(xs, dst []int) ([]int, error) {
scan:
	for _, x := range xs {
		switch {
		case x < 0:
			return nil, fmt.Errorf("negative %d", x)
		case x == 0:
			break scan
		}
	}
	return append(dst, len(xs)), nil // want "append may grow and allocate"
}
