package cursor

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

var errSample = errors.New("sample: malformed")

// sample exercises every primitive once, plus a nested list.
type sample struct {
	Kind  uint8
	Small uint16
	N     int
	Big   uint64
	Size  int
	F     float64
	OK    bool
	Blob  []byte
	Name  string
	Key   [4]byte
	Rows  []row
}

type row struct {
	ID   uint32
	Tags []uint64
}

func (s *sample) layout(c *Codec) {
	c.Magic("smpl")
	U8(c, &s.Kind)
	U32(c, &s.Small)
	U32(c, &s.N)
	U64(c, &s.Big)
	U64(c, &s.Size)
	F64(c, &s.F)
	c.Bool(&s.OK)
	c.Bytes(&s.Blob)
	c.String(&s.Name)
	c.Fixed(s.Key[:])
	List(c, &s.Rows, 8, func(r *row) {
		U32(c, &r.ID)
		List(c, &r.Tags, 8, func(t *uint64) { U64(c, t) })
	})
}

func encodeSample(s *sample) []byte {
	c := Encoder(0)
	s.layout(c)
	return c.W.Buf
}

func decodeSample(b []byte) (*sample, error) {
	c := Decoder(b, errSample)
	s := &sample{}
	s.layout(c)
	if err := c.R.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

var fixture = sample{
	Kind: 7, Small: 0xBEEF, N: 123456, Big: 1 << 63, Size: 99, F: -2.5, OK: true,
	Blob: []byte{1, 2, 3}, Name: "héllo", Key: [4]byte{9, 8, 7, 6},
	Rows: []row{{ID: 1, Tags: []uint64{10, 20}}, {ID: 2}},
}

func TestRoundTrip(t *testing.T) {
	want := fixture
	blob := encodeSample(&want)
	got, err := decodeSample(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("decoded %+v, want %+v", *got, want)
	}
	if !bytes.Equal(encodeSample(got), blob) {
		t.Fatal("decode → encode is not the identity")
	}
}

// TestTruncationAndFlips: every truncation fails with the caller's
// sentinel; every byte flip either fails with it or decodes to a value
// that re-encodes to the flipped bytes; nothing panics.
func TestTruncationAndFlips(t *testing.T) {
	src := fixture
	blob := encodeSample(&src)
	for n := 0; n < len(blob); n++ {
		if s, err := decodeSample(blob[:n]); !errors.Is(err, errSample) || s != nil {
			t.Fatalf("truncated to %d bytes: value %v, err %v", n, s != nil, err)
		}
	}
	if _, err := decodeSample(append(append([]byte(nil), blob...), 0)); !errors.Is(err, errSample) {
		t.Fatalf("trailing byte: err %v", err)
	}
	for off := range blob {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), blob...)
			mut[off] ^= mask
			s, err := decodeSample(mut)
			switch {
			case err != nil && (!errors.Is(err, errSample) || s != nil):
				t.Fatalf("flip %#x at %d: value %v, err %v", mask, off, s != nil, err)
			case err == nil && !bytes.Equal(encodeSample(s), mut):
				t.Fatalf("flip %#x at %d: accepted but re-encodes differently", mask, off)
			}
		}
	}
}

func TestReaderIsSticky(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, errSample)
	if r.U8() != 1 || r.U32() != 0 || r.Err() == nil {
		t.Fatal("a short read must fail and yield zero")
	}
	first := r.Err()
	if r.U8() != 0 || r.U64() != 0 || r.Bytes() != nil || r.Rest() != nil || r.Count(1) != 0 {
		t.Fatal("reads after a failure must yield zero values")
	}
	r.Fail("later")
	if r.Err() != first || r.Done() != first {
		t.Fatal("the first failure must be the one reported")
	}
}

func TestCountBoundsAllocation(t *testing.T) {
	var w Writer
	w.U32(1 << 30) // claims 2^30 eight-byte elements, supplies none
	c := Decoder(w.Buf, errSample)
	var tags []uint64
	List(c, &tags, 8, func(t *uint64) { U64(c, t) })
	if !errors.Is(c.R.Done(), errSample) || tags != nil {
		t.Fatalf("forged count: %d elements, err %v", len(tags), c.R.Err())
	}
	// A count the input can hold is accepted exactly at the boundary.
	w = Writer{}
	w.U32(2)
	w.U64(5)
	w.U64(6)
	r := NewReader(w.Buf, errSample)
	if n := r.Count(8); n != 2 || r.Err() != nil {
		t.Fatalf("Count = %d, err %v", n, r.Err())
	}
	r = NewReader(w.Buf[:len(w.Buf)-1], errSample)
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("Count over a short input = %d, err %v", n, r.Err())
	}
}

func TestU32RejectsValuesTheTypeCannotHold(t *testing.T) {
	var w Writer
	w.U32(0x10001)
	c := Decoder(w.Buf, errSample)
	var v uint16
	if U32(c, &v); !errors.Is(c.R.Err(), errSample) {
		t.Fatalf("0x10001 decoded into a uint16 as %d", v)
	}
}
