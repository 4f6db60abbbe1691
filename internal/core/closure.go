package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"mmt/internal/crypt"
	"mmt/internal/cursor"
)

// TransferMode selects the delegation semantics of §V-B2.
type TransferMode uint8

const (
	// OwnershipTransfer moves the MMT: the receiver gets a writable tree
	// and the sender invalidates its copy on ack. The DAG programming
	// model.
	OwnershipTransfer TransferMode = 1
	// OwnershipCopy sends a read-only snapshot: the receiver may only
	// read; the sender keeps ownership and may keep writing after the ack.
	// The send/receive programming model.
	OwnershipCopy TransferMode = 2
)

func (m TransferMode) String() string {
	switch m {
	case OwnershipTransfer:
		return "ownership-transfer"
	case OwnershipCopy:
		return "ownership-copy"
	default:
		return fmt.Sprintf("TransferMode(%d)", uint8(m))
	}
}

// Closure is the MMT transfer unit (§IV-B2): "all data and metadata (i.e.,
// tree nodes, root and data MACs) used in decryption and authentication".
// The root travels sealed under the MMT key; tree nodes and ciphertext
// travel in the clear ("there is no need to encrypt intermediate tree
// nodes, as they are stored in memory as plaintext").
//
// A closure owns none of its bulk fields. One built by BeginSend borrows
// LineMACs and Data from the sending region (valid until CompleteSend);
// one parsed by DecodeClosure holds views into the wire bytes, except for
// LineMACs, which it decoded into a slice Accept hands to the engine.
type Closure struct {
	Mode TransferMode
	// GUAddrHint and CounterHint are cleartext copies of the sealed root
	// fields. The receiver needs CounterHint to derive the unseal nonce;
	// both are authenticated because the whole header is the seal's
	// additional data, and they are cross-checked against the sealed
	// values after unsealing.
	GUAddrHint  uint64
	CounterHint uint64
	SealedRoot  []byte
	TreeNodes   []byte
	LineMACs    []uint64
	Data        []byte
}

const (
	closureVersion = 1
	headerSize     = 4 + 1 + 1 + 8 + 8 // magic, version, mode, guaddr, counter
)

var closureMagic = [4]byte{'M', 'M', 'T', 'C'}

// WireSize reports the encoded size in bytes — what actually crosses the
// interconnect, and therefore what the cost model charges for.
func (c *Closure) WireSize() int {
	return headerSize + 4 + len(c.SealedRoot) + 4 + len(c.TreeNodes) +
		4 + 8*len(c.LineMACs) + 4 + len(c.Data)
}

// MetadataSize reports the non-data bytes of the closure (root, tree
// nodes, MACs): the delegation's bandwidth overhead versus a raw write.
func (c *Closure) MetadataSize() int { return c.WireSize() - len(c.Data) }

// header encodes the authenticated header.
func (c *Closure) header() []byte {
	w := cursor.Writer{Buf: make([]byte, 0, headerSize)}
	c.appendHeader(&w)
	return w.Buf
}

// appendHeader appends the headerSize-byte authenticated header.
func (c *Closure) appendHeader(w *cursor.Writer) {
	w.Raw(closureMagic[:])
	w.U8(closureVersion)
	w.U8(uint8(c.Mode))
	w.U64(c.GUAddrHint)
	w.U64(c.CounterHint)
}

// Encode serializes the closure for the wire into a fresh buffer of
// WireSize bytes (see AppendTo for how the buffer comes to be).
func (c *Closure) Encode() []byte {
	var w cursor.Writer
	c.AppendTo(&w)
	return w.Buf
}

// AppendTo appends the wire form — the header, then four length-prefixed
// chunks: sealed root, tree nodes, line MACs, data — to w. This is the one
// copy a send makes of the region, and the one encoder body: Encode and
// the channel's closure frame both end here.
//
// AppendTo reserves room for everything but Data (MetadataSize) and lets
// the final append of Data outgrow that capacity on purpose. A buffer
// reserved at the full WireSize is zeroed by the allocator and then
// overwritten end to end; an append that has to grow a pointer-free slice
// gets memory the runtime does not clear (it clears only the sub-page
// tail past the new length), so the 2 MB chunk is written once instead of
// zeroed and then written. The price is that the metadata prefix is
// allocated, then copied into the grown buffer: one more allocation of
// MetadataSize bytes per closure. A caller that frames the closure writes
// its prefix first and adds MetadataSize — never WireSize — to its own
// reservation, so prefix and metadata share that allocation.
func (c *Closure) AppendTo(w *cursor.Writer) {
	w.Buf = slices.Grow(w.Buf, c.MetadataSize())
	c.appendHeader(w)
	w.Bytes(c.SealedRoot)
	w.Bytes(c.TreeNodes)
	w.U32(uint32(8 * len(c.LineMACs)))
	for _, m := range c.LineMACs {
		w.U64(m)
	}
	w.Bytes(c.Data)
}

// ErrBadClosure reports a structurally invalid wire closure.
var ErrBadClosure = errors.New("core: malformed MMT closure")

// DecodeClosure parses a wire closure. Structural validation only — the
// cryptographic checks happen in Accept. The closure's byte fields are
// views into wire.
func DecodeClosure(wire []byte) (*Closure, error) {
	r := cursor.NewReader(wire, ErrBadClosure)
	if string(r.Raw(len(closureMagic))) != string(closureMagic[:]) {
		r.Fail("bad magic")
	}
	if v := r.U8(); v != closureVersion {
		r.Fail("version %d", v)
	}
	c := &Closure{Mode: TransferMode(r.U8()), GUAddrHint: r.U64(), CounterHint: r.U64()}
	if c.Mode != OwnershipTransfer && c.Mode != OwnershipCopy {
		r.Fail("mode %d", uint8(c.Mode))
	}
	c.SealedRoot = r.Bytes()
	c.TreeNodes = r.Bytes()
	macs := r.Bytes()
	if len(macs)%8 != 0 {
		r.Fail("MAC chunk %d bytes", len(macs))
	}
	c.Data = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	c.LineMACs = make([]uint64, len(macs)/8)
	for i := range c.LineMACs {
		c.LineMACs[i] = binary.LittleEndian.Uint64(macs[i*8:])
	}
	return c, nil
}

// rootPlain is the sealed root payload: the fields of the extended MMT
// root (§IV-B1) that must not be forgeable in flight.
type rootPlain struct {
	GUAddr  uint64
	Counter uint64
	Mode    TransferMode
}

func (r rootPlain) encode() []byte {
	var w cursor.Writer
	w.U64(r.GUAddr)
	w.U64(r.Counter)
	w.U8(uint8(r.Mode))
	return w.Buf
}

func decodeRootPlain(b []byte) (rootPlain, error) {
	rd := cursor.NewReader(b, ErrBadClosure)
	r := rootPlain{GUAddr: rd.U64(), Counter: rd.U64(), Mode: TransferMode(rd.U8())}
	return r, rd.Done()
}

// sealRoot seals the root fields under the MMT key, binding the cleartext
// header as additional data and deriving the nonce from the root counter
// (unique per key by protocol construction).
func sealRoot(e *crypt.Engine, c *Closure, r rootPlain) {
	c.SealedRoot = e.Seal(r.Counter, c.header(), r.encode())
}

// unsealRoot reverses sealRoot and cross-checks the cleartext hints.
func unsealRoot(e *crypt.Engine, c *Closure) (rootPlain, error) {
	pt, err := e.Unseal(c.CounterHint, c.header(), c.SealedRoot)
	if err != nil {
		return rootPlain{}, err
	}
	r, err := decodeRootPlain(pt)
	if err != nil {
		return rootPlain{}, err
	}
	if r.GUAddr != c.GUAddrHint || r.Counter != c.CounterHint || r.Mode != c.Mode {
		return rootPlain{}, fmt.Errorf("%w: sealed root disagrees with header", ErrBadClosure)
	}
	return r, nil
}
