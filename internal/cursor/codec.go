package cursor

import "math"

// Codec walks a layout in one of two directions: with W set it appends
// each field, otherwise it consumes R and stores what it read. A format
// whose layout is one function over a Codec has an encoder and a decoder
// that cannot disagree. Decoded values own their memory.
type Codec struct {
	W *Writer
	R *Reader
}

// Encoder returns a codec that appends to a fresh Writer with room for
// capacity bytes (0 when the caller has no estimate).
func Encoder(capacity int) *Codec { return &Codec{W: &Writer{Buf: make([]byte, 0, capacity)}} }

// Decoder returns a codec that consumes buf; failures wrap sentinel.
func Decoder(buf []byte, sentinel error) *Codec { return &Codec{R: NewReader(buf, sentinel)} }

func U8[T ~uint8](c *Codec, v *T) {
	if c.W != nil {
		c.W.U8(uint8(*v))
	} else {
		*v = T(c.R.U8())
	}
}

// U32 codes a value the format stores in 32 bits. A stored value the Go
// type cannot hold would not re-encode to the same bytes and is a
// failure.
func U32[T ~int | ~int32 | ~uint16 | ~uint32](c *Codec, v *T) {
	if c.W != nil {
		c.W.U32(uint32(*v))
	} else if x := c.R.U32(); uint32(T(x)) != x {
		c.R.Fail("value %d overflows its field", x)
	} else {
		*v = T(x)
	}
}

func U64[T ~int | ~int64 | ~uint64](c *Codec, v *T) {
	if c.W != nil {
		c.W.U64(uint64(*v))
	} else {
		*v = T(c.R.U64())
	}
}

// F64 codes a float as its IEEE-754 bit pattern.
func F64[T ~float64](c *Codec, v *T) {
	if c.W != nil {
		c.W.U64(math.Float64bits(float64(*v)))
	} else {
		*v = T(math.Float64frombits(c.R.U64()))
	}
}

// Bool codes one byte, 0 or 1; anything else is a failure.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if U8(c, &b); b > 1 {
		c.R.Fail("bad bool %d", b)
	}
	*v = b == 1
}

// Bytes codes a length-prefixed byte string.
func (c *Codec) Bytes(v *[]byte) {
	if c.W != nil {
		c.W.Bytes(*v)
	} else {
		*v = append([]byte(nil), c.R.Bytes()...)
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(v *string) {
	if c.W != nil {
		c.W.Bytes([]byte(*v))
	} else {
		*v = string(c.R.Bytes())
	}
}

// Fixed codes a fixed-size array (magics' neighbours: keys, digests)
// with no prefix.
func (c *Codec) Fixed(v []byte) {
	if c.W != nil {
		c.W.Raw(v)
	} else {
		copy(v, c.R.Raw(len(v)))
	}
}

// Magic appends the format tag, or fails unless the input starts with it.
func (c *Codec) Magic(tag string) {
	if c.W != nil {
		c.W.Raw([]byte(tag))
	} else if string(c.R.Raw(len(tag))) != tag {
		c.R.Fail("bad magic (want %q)", tag)
	}
}

// List codes a counted sequence whose elements take at least elemSize
// encoded bytes each. Decoding appends element by element, so memory
// tracks the input actually consumed.
func List[T any](c *Codec, s *[]T, elemSize int, elem func(*T)) {
	if c.W != nil {
		c.W.U32(uint32(len(*s)))
		for i := range *s {
			elem(&(*s)[i])
		}
		return
	}
	for n := c.R.Count(elemSize); n > 0 && c.R.Err() == nil; n-- {
		var e T
		elem(&e)
		*s = append(*s, e)
	}
}
