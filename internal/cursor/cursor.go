// Package cursor is the one byte cursor behind every binary framing in
// the module outside internal/store (which owns mmt-store/v1): the
// mmt-snap/v1 codec and its delta records, mmt-artifact/v1, the closure
// wire form and the monitor's frame route. All of them are fixed-width
// little-endian integers and length-prefixed byte strings, so they share
// one Writer and one bounds-checked Reader instead of a private copy
// each.
//
// The Reader is sticky: the first failure is remembered, every later
// read returns zero values, and the caller checks once at the end with
// Done. Failures wrap the sentinel the caller chose, so each format
// keeps its own typed error.
package cursor

import (
	"encoding/binary"
	"fmt"
)

// Writer appends fields to Buf.
type Writer struct{ Buf []byte }

func (w *Writer) U8(v uint8)   { w.Buf = append(w.Buf, v) }
func (w *Writer) U16(v uint16) { w.Buf = binary.LittleEndian.AppendUint16(w.Buf, v) }
func (w *Writer) U32(v uint32) { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64) { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }

// Raw appends b with no length prefix (magics, fixed-size arrays).
func (w *Writer) Raw(b []byte) { w.Buf = append(w.Buf, b...) }

// Bytes appends b behind a 32-bit length prefix.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Reader consumes fields from a byte slice it never writes to.
type Reader struct {
	buf      []byte
	off      int
	err      error
	sentinel error
	zero     [8]byte // what a failed fixed-width read decodes
}

// NewReader reads buf; every failure it reports wraps sentinel.
func NewReader(buf []byte, sentinel error) *Reader {
	return &Reader{buf: buf, sentinel: sentinel}
}

// Fail records a failure unless one is already recorded. Callers use it
// for their own range checks so that those, too, surface through Done.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
}

// Err reports the recorded failure, if any.
func (r *Reader) Err() error { return r.err }

// Len reports the unread byte count.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Raw returns a view of the next n bytes, or nil after a failure.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.Fail("truncated at offset %d (need %d bytes, have %d)", r.off, n, r.Len())
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// fixed returns the next n <= 8 bytes, or zeros after a failure.
func (r *Reader) fixed(n int) []byte {
	if b := r.Raw(n); b != nil {
		return b
	}
	return r.zero[:n]
}

func (r *Reader) U8() uint8   { return r.fixed(1)[0] }
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// Bytes returns a view of a field written by Writer.Bytes; callers that
// outlive the input copy it.
func (r *Reader) Bytes() []byte { return r.Raw(int(r.U32())) }

// Count reads a 32-bit element count whose elements occupy at least
// elemSize bytes each, and rejects one the remaining input cannot hold —
// so a forged count can never size an allocation beyond the input.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err == nil && uint64(n)*uint64(elemSize) > uint64(r.Len()) {
		r.Fail("count %d at offset %d exceeds the %d bytes left", n, r.off-4, r.Len())
		return 0
	}
	return n
}

// Rest returns a view of everything unread and consumes it.
func (r *Reader) Rest() []byte { return r.Raw(r.Len()) }

// Done reports the recorded failure, or one for unread trailing bytes.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail("%d trailing bytes", r.Len())
	}
	return r.err
}
