package mmt

// Artifact is the single-buffer counterpart of a full snapshot: one
// exported MMT closure, sealed under a link's key, that can leave the
// process as bytes and be imported by the link's other endpoint in a
// different process ("save on machine A, load on machine B, delegation
// resumes"). The closure inside is exactly what delegation puts on the
// wire, so an imported artifact goes through the same freshness,
// ordering, authenticity and integrity checks as a live transfer — a
// stale, replayed or tampered artifact is rejected with the same typed
// errors.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"mmt/internal/cursor"
)

// artifactMagic tags the serialized artifact framing.
const artifactMagic = "mmt-artifact/v1\x00"

// ErrBadArtifact: the artifact framing is malformed or its checksum fails
// (the sealed closure inside has its own cryptographic protection; this
// error is about the plain file framing around it).
var ErrBadArtifact = errors.New("mmt: malformed artifact")

// Artifact is one exported MMT closure bound to a link.
type Artifact struct {
	linkID string
	mode   TransferMode
	wire   []byte
}

// LinkID reports the link the artifact was exported on; Import must be
// called on the same link (the closure is sealed under its key).
func (a *Artifact) LinkID() string { return a.linkID }

// Mode reports the delegation semantics the artifact carries.
func (a *Artifact) Mode() TransferMode { return a.mode }

// Export seals the buffer's MMT closure into an Artifact instead of
// sending it over the interconnect. With OwnershipTransfer the local
// buffer is consumed (its region returns to the pool) the moment the
// artifact exists — ownership now lives in the artifact until Import
// accepts it. With OwnershipCopy the local buffer stays live and
// writable, and the artifact carries a read-only snapshot.
func (l *Link) Export(b *Buffer, mode TransferMode) (*Artifact, error) {
	from, _, err := l.ends(b)
	if err != nil {
		return nil, err
	}
	wire, err := from.machine.mon.ExportPMO(from.id, b.cap, l.id, mode)
	if err != nil {
		return nil, err
	}
	l.cluster.markStructural()
	return &Artifact{linkID: l.id, mode: mode, wire: wire}, nil
}

// Import accepts an artifact at the link's other endpoint, exactly as if
// it had arrived by delegation: the receiving monitor verifies freshness
// against the link's counter floor, ordering against the GUAddr
// monotonicity rule, and the sealed root's authenticity and integrity
// before any byte becomes readable. e must be an endpoint of the link
// and must not be on the exporting machine.
func (l *Link) Import(a *Artifact, e *Enclave) (*Buffer, error) {
	if a.linkID != l.id {
		return nil, fmt.Errorf("mmt: artifact belongs to link %s, not %s", a.linkID, l.id)
	}
	if e != l.a && e != l.b {
		return nil, ErrNotOnLink
	}
	p, err := e.machine.mon.ImportClosure(l.id, a.wire)
	if err != nil {
		return nil, err
	}
	l.cluster.markStructural()
	return &Buffer{machine: e.machine, owner: p.Owner, cap: p.Cap}, nil
}

// layout is the mmt-artifact/v1 body, in both directions: magic, mode,
// link id, sealed closure.
func (a *Artifact) layout(c *cursor.Codec) {
	c.Magic(artifactMagic)
	cursor.U8(c, &a.mode)
	c.String(&a.linkID)
	c.Bytes(&a.wire)
}

// WriteTo serializes the artifact: the body, then CRC-32 over it. (The
// checksum catches file-level corruption early with a clear error;
// security does not rest on it — the closure's own MACs do that at
// Import.)
func (a *Artifact) WriteTo(w io.Writer) (int64, error) {
	c := cursor.Encoder(len(artifactMagic) + 1 + 4 + len(a.linkID) + 4 + len(a.wire) + 4)
	a.layout(c)
	c.W.U32(crc32.ChecksumIEEE(c.W.Buf))
	n, err := w.Write(c.W.Buf)
	return int64(n), err
}

// ReadArtifact deserializes an artifact written by WriteTo.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the checksum", ErrBadArtifact, len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrBadArtifact, got, sum)
	}
	a := &Artifact{}
	c := cursor.Decoder(body, ErrBadArtifact)
	a.layout(c)
	if err := c.R.Done(); err != nil {
		return nil, err
	}
	return a, nil
}
