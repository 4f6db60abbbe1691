// Package store implements the mmt-store/v1 on-disk format: a two-file,
// crash-consistent record store used for cluster snapshots and continuous
// dirty-node checkpointing (modeled on the mpt disk design: whole state in
// memory, dirty deltas streamed in sequential batches, root hash verified
// on reload).
//
// Layout:
//
//	data.mmt    16-byte header ("mmt-store/v1" + 4 reserved zero bytes)
//	            followed by append-only records:
//	              type u8 | payload-len u32 LE | payload | crc32(type..payload) u32 LE
//	commit.mmt  two alternating 64-byte commit slots at offsets 0 and 64:
//	              "mmtc" | epoch u64 | dataLen u64 | rootHash[32] | crc32 u32
//	              (padded with zeros to 64 bytes)
//
// The commit protocol: flush staged records to data.mmt, fsync it, then
// write the commit record into the slot epoch%2 and fsync. Recovery reads
// both slots, picks the valid one with the highest epoch, and parses
// data.mmt only up to its dataLen — so a reader always sees either the
// old or the new committed state, never a torn one. Per-record CRCs catch
// media corruption inside the committed prefix.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic is the data-file magic. The version is part of the string: any
// incompatible change to the record layout bumps it.
const Magic = "mmt-store/v1"

// HeaderSize is the data-file header length (magic + 4 reserved bytes).
const HeaderSize = 16

// CommitSlotSize is the size of one commit slot; the commit file holds
// exactly two.
const CommitSlotSize = 64

// commitMagic tags a commit slot.
const commitMagic = "mmtc"

// Format errors.
var (
	ErrBadMagic  = errors.New("store: bad data-file magic (not mmt-store/v1)")
	ErrCorrupt   = errors.New("store: corrupt record")
	ErrNoCommit  = errors.New("store: no valid commit record")
	ErrTruncated = errors.New("store: data file shorter than committed length")
)

// RecordType tags a record's payload. The store itself is agnostic: type
// meanings belong to the layer writing them (the snapshot codec).
type RecordType uint8

// Record is one framed payload in the data file.
type Record struct {
	Type    RecordType
	Payload []byte
}

// recordHeaderSize is type byte + 4-byte payload length.
const recordHeaderSize = 5

// appendRecord frames r onto dst: type, length, payload, CRC32 (IEEE) over
// type..payload.
func appendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, byte(r.Type))
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(r.Payload)))
	dst = append(dst, lenBuf[:]...)
	dst = append(dst, r.Payload...)
	sum := crc32.ChecksumIEEE(dst[start:])
	binary.LittleEndian.PutUint32(lenBuf[:], sum)
	return append(dst, lenBuf[:]...)
}

// parseRecords decodes a committed record region. Any framing or CRC
// error inside it is ErrCorrupt: the commit protocol guarantees committed
// bytes are whole, so damage here is media corruption, not a crash.
func parseRecords(data []byte) ([]Record, error) {
	var out []Record
	off := 0
	for off < len(data) {
		if len(data)-off < recordHeaderSize+4 {
			return nil, fmt.Errorf("%w: truncated frame at offset %d", ErrCorrupt, off)
		}
		n := int(binary.LittleEndian.Uint32(data[off+1:]))
		end := off + recordHeaderSize + n
		if end+4 > len(data) {
			return nil, fmt.Errorf("%w: record at offset %d overruns committed region", ErrCorrupt, off)
		}
		want := binary.LittleEndian.Uint32(data[end:])
		if crc32.ChecksumIEEE(data[off:end]) != want {
			return nil, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
		}
		out = append(out, Record{
			Type:    RecordType(data[off]),
			Payload: append([]byte(nil), data[off+recordHeaderSize:end]...),
		})
		off = end + 4
	}
	return out, nil
}

// CommitRecord pins one committed state: the epoch (strictly increasing),
// the committed data-file length, and the root hash of the state the
// records encode (verified against the reloaded state).
type CommitRecord struct {
	Epoch    uint64
	DataLen  uint64
	RootHash [32]byte
}

// encode serializes the commit record into one slot.
func (c CommitRecord) encode() [CommitSlotSize]byte {
	var out [CommitSlotSize]byte
	copy(out[:4], commitMagic)
	binary.LittleEndian.PutUint64(out[4:], c.Epoch)
	binary.LittleEndian.PutUint64(out[12:], c.DataLen)
	copy(out[20:52], c.RootHash[:])
	binary.LittleEndian.PutUint32(out[52:], crc32.ChecksumIEEE(out[:52]))
	return out
}

// decodeCommit parses one slot; ok is false for empty, torn or corrupt
// slots (recovery just skips them).
func decodeCommit(b []byte) (CommitRecord, bool) {
	if len(b) < CommitSlotSize || string(b[:4]) != commitMagic {
		return CommitRecord{}, false
	}
	if crc32.ChecksumIEEE(b[:52]) != binary.LittleEndian.Uint32(b[52:]) {
		return CommitRecord{}, false
	}
	var c CommitRecord
	c.Epoch = binary.LittleEndian.Uint64(b[4:])
	c.DataLen = binary.LittleEndian.Uint64(b[12:])
	copy(c.RootHash[:], b[20:52])
	return c, true
}

// header builds the data-file header.
func header() [HeaderSize]byte {
	var h [HeaderSize]byte
	copy(h[:], Magic)
	return h
}

// checkHeader validates a data-file header.
func checkHeader(h []byte) error {
	if len(h) < HeaderSize || string(h[:len(Magic)]) != Magic {
		return ErrBadMagic
	}
	return nil
}
