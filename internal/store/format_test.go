package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

// TestGoldenRecordEncoding pins the mmt-store/v1 record framing byte for
// byte. If this test fails, the on-disk format changed: bump the version
// string in Magic instead of editing the golden values.
func TestGoldenRecordEncoding(t *testing.T) {
	var b []byte
	b = appendRecord(b, Record{Type: 1, Payload: []byte("mmt")})
	b = appendRecord(b, Record{Type: 4, Payload: []byte{0xde, 0xad, 0xbe, 0xef}})
	b = appendRecord(b, Record{Type: 7})
	const golden = "01030000006d6d74d63d545f0404000000deadbeef1e37776207000000000d2b0274"
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("record encoding drifted:\n got %s\nwant %s", got, golden)
	}

	recs, err := parseRecords(b)
	if err != nil {
		t.Fatalf("parseRecords: %v", err)
	}
	if len(recs) != 3 || recs[0].Type != 1 || string(recs[0].Payload) != "mmt" ||
		recs[1].Type != 4 || !bytes.Equal(recs[1].Payload, []byte{0xde, 0xad, 0xbe, 0xef}) ||
		recs[2].Type != 7 || len(recs[2].Payload) != 0 {
		t.Fatalf("round trip mismatch: %+v", recs)
	}
}

// TestGoldenCommitSlot pins the commit-slot layout.
func TestGoldenCommitSlot(t *testing.T) {
	var rh [32]byte
	for i := range rh {
		rh[i] = byte(i)
	}
	cr := CommitRecord{Epoch: 3, DataLen: 0x1234, RootHash: rh}
	enc := cr.encode()
	const golden = "6d6d746303000000000000003412000000000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f31b98b7d0000000000000000"
	if got := hex.EncodeToString(enc[:]); got != golden {
		t.Fatalf("commit slot drifted:\n got %s\nwant %s", got, golden)
	}
	dec, ok := decodeCommit(enc[:])
	if !ok || dec != cr {
		t.Fatalf("commit round trip: ok=%v dec=%+v", ok, dec)
	}
}

// TestGoldenHeader pins the data-file header.
func TestGoldenHeader(t *testing.T) {
	h := header()
	const golden = "6d6d742d73746f72652f763100000000"
	if got := hex.EncodeToString(h[:]); got != golden {
		t.Fatalf("header drifted:\n got %s\nwant %s", got, golden)
	}
	if err := checkHeader(h[:]); err != nil {
		t.Fatalf("checkHeader: %v", err)
	}
}

// TestCorruptRecordDetected flips bits inside a committed region and
// checks the per-record CRC catches every one.
func TestCorruptRecordDetected(t *testing.T) {
	var b []byte
	b = appendRecord(b, Record{Type: 9, Payload: []byte("payload-bytes")})
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x40
		if _, err := parseRecords(mut); err == nil {
			t.Fatalf("bit flip at byte %d not detected", i)
		}
	}
}

// TestCorruptCommitSlotRejected flips bits in a commit slot.
func TestCorruptCommitSlotRejected(t *testing.T) {
	cr := CommitRecord{Epoch: 8, DataLen: 99}
	enc := cr.encode()
	for i := 0; i < 56; i++ { // magic + fields + CRC; trailing pad is unchecked
		mut := enc
		mut[i] ^= 0x01
		if _, ok := decodeCommit(mut[:]); ok {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

// FuzzStoreFormat: on reopen the committed record region and each commit
// slot are read from disk. parseRecords must never panic, must refuse
// with ErrCorrupt and no records, and what it accepts must re-frame to
// exactly the input; decodeCommit must refuse with a zero record, and a
// slot it accepts must re-encode to the slot's bytes up to its CRC.
func FuzzStoreFormat(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := parseRecords(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || recs != nil {
				t.Fatalf("records %v, err %v; want none and ErrCorrupt", recs != nil, err)
			}
		} else {
			var again []byte
			for _, r := range recs {
				again = appendRecord(again, r)
			}
			if !bytes.Equal(again, data) {
				t.Fatal("accepted records re-frame differently")
			}
		}
		c, ok := decodeCommit(data)
		if !ok {
			if c != (CommitRecord{}) {
				t.Fatalf("refused slot decoded to %+v", c)
			}
			return
		}
		if slot := c.encode(); !bytes.Equal(slot[:56], data[:56]) {
			t.Fatal("accepted slot re-encodes differently")
		}
	})
}
