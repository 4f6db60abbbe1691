package channel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"mmt/internal/core"
	"mmt/internal/cursor"
)

// monitorRoute is the route a monitor connection puts before every frame:
// 2-byte little-endian conn-id length, then the conn id.
var monitorRoute = append([]byte{11, 0}, "a/1<->b/1#0"...)

// TestClosureFrame pins the closure frame — route, then the closure's
// wire form encoded in place — for the monitor's route and Delegation's
// empty one.
func TestClosureFrame(t *testing.T) {
	closure := &core.Closure{Mode: core.OwnershipCopy, GUAddrHint: 7, CounterHint: 9,
		SealedRoot: []byte("root"), TreeNodes: []byte("nodes"), LineMACs: []uint64{1, 2}, Data: []byte("closure-bytes")}
	wire := closure.Encode()
	for _, route := range [][]byte{monitorRoute, nil} {
		if frame, want := closureFrame(route, closure), append(slices.Clone(route), wire...); !bytes.Equal(frame, want) {
			t.Fatalf("closure frame drifted: %d bytes %x, want %x", len(frame), frame, want)
		}
	}

	// The data chunk outgrows the encoders' reservation on purpose
	// (core.Closure.AppendTo): the frame must still be, byte for byte and to
	// the length, what a buffer reserved in full receives, and end within a
	// page of its capacity — for the default 2 MB closure and for a 16-line
	// one whose data is whole, short or absent.
	for _, tc := range []struct{ lines, tree, data int }{
		{32768, 75 << 10, 2 << 20}, {16, 90, 16 * 64}, {16, 90, 40}, {16, 90, 0},
	} {
		closure := patternedClosure(tc.lines, tc.tree, tc.data)
		full := cursor.Writer{Buf: make([]byte, 0, len(monitorRoute)+closure.WireSize())}
		full.Raw(monitorRoute)
		closure.AppendTo(&full)
		if cap(full.Buf) != len(full.Buf) {
			t.Fatalf("%+v: the fully reserved reference grew", tc)
		}
		frame, wire := closureFrame(monitorRoute, closure), closure.Encode()
		if !bytes.Equal(frame, full.Buf) || !bytes.Equal(wire, full.Buf[len(monitorRoute):]) {
			t.Fatalf("%+v: a grown frame or wire differs from the fully reserved one", tc)
		}
		if len(frame) != len(monitorRoute)+closure.WireSize() || cap(frame)-len(frame) >= 8192 || cap(wire)-len(wire) >= 8192 {
			t.Fatalf("%+v: frame %d of %d bytes, wire %d of %d, for a %d-byte closure", tc, len(frame), cap(frame), len(wire), cap(wire), closure.WireSize())
		}
	}
}

// TestAckFrame pins the ack: route, status byte (1 ack, 0 nack), then the
// delegated MMT's global-unique address little-endian — 9 bytes behind an
// empty route — and checks that readAck takes back exactly that body.
func TestAckFrame(t *testing.T) {
	const guaddr = 0x0102030405060708
	if got, want := ackFrame(nil, true, guaddr), []byte{1, 8, 7, 6, 5, 4, 3, 2, 1}; !bytes.Equal(got, want) {
		t.Fatalf("ack %x, want %x", got, want)
	}
	nack := ackFrame(monitorRoute, false, guaddr)
	if !bytes.Equal(nack[:len(monitorRoute)], monitorRoute) || len(nack) != len(monitorRoute)+9 || nack[len(monitorRoute)] != 0 {
		t.Fatalf("routed nack %x", nack)
	}
	if ok, addr, err := readAck(nack[len(monitorRoute):]); ok || addr != guaddr || err != nil {
		t.Fatalf("readAck(nack) = %v, %#x, %v", ok, addr, err)
	}
	for _, bad := range [][]byte{nil, make([]byte, 8), make([]byte, 10), {2, 0, 0, 0, 0, 0, 0, 0, 0}} {
		if _, _, err := readAck(bad); !errors.Is(err, errBadAck) {
			t.Fatalf("readAck(%x) = %v, want errBadAck", bad, err)
		}
	}
}

// sendState is one in-flight send as Complete's caller can observe it.
type sendState struct {
	guaddr uint64
	state  core.State
}

func inFlight(d *Delegation) []sendState {
	var out []sendState
	for _, s := range d.inflight {
		out = append(out, sendState{s.mmt.GUAddr(), s.mmt.State()})
	}
	return out
}

// FuzzAck: Complete on any control body, with two sends in flight, never
// panics. A reject is the malformed-ack or unknown-ack error and leaves the
// in-flight table and every MMT as they were; an accept is a well-formed
// body naming a send in flight, and completes that send only. The
// committed corpus holds an ack and a nack for the first send and the
// malformed shapes TestAckFrame lists.
func FuzzAck(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		r := newRig(t, 0)
		if err := r.dgA.Send(make([]byte, 2*r.dgA.Capacity())); err != nil {
			t.Fatal(err)
		}
		before := inFlight(r.dgA)
		mmt, acked, err := r.dgA.Complete(body)
		after := inFlight(r.dgA)
		if err != nil {
			if !errors.Is(err, errBadAck) && !errors.Is(err, errUnknownAck) {
				t.Fatalf("reject with %v", err)
			}
			if !slices.Equal(before, after) {
				t.Fatalf("reject changed the sends in flight: %+v, then %+v", before, after)
			}
			return
		}
		if len(body) != 9 || acked != (body[0] == 1) {
			t.Fatalf("accepted %x as acked %v", body, acked)
		}
		guaddr := binary.LittleEndian.Uint64(body[1:])
		i := slices.IndexFunc(before, func(s sendState) bool { return s.guaddr == guaddr })
		if i < 0 || mmt.GUAddr() != guaddr || !slices.Equal(after, slices.Delete(slices.Clone(before), i, i+1)) {
			t.Fatalf("accepted %x: sends %+v, then %+v", body, before, after)
		}
		if st := mmt.State(); acked && st != core.StateInvalid || !acked && st != core.StateValid {
			t.Fatalf("completed send left in state %v (acked %v)", st, acked)
		}
	})
}

// patternedClosure is a closure of the given shape — line MACs, bytes of
// tree nodes, bytes of data — with no two neighbouring bytes alike.
func patternedClosure(lines, tree, data int) *core.Closure {
	patterned := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)*31 + seed
		}
		return b
	}
	c := &core.Closure{Mode: core.OwnershipTransfer, GUAddrHint: 7, CounterHint: 9, SealedRoot: patterned(33, 1),
		TreeNodes: patterned(tree, 2), LineMACs: make([]uint64, lines), Data: patterned(data, 3)}
	for i := range c.LineMACs {
		c.LineMACs[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return c
}

var frameSink []byte

// BenchmarkEncodeClosureFrame2M: the sender's one copy — a default-tree
// closure (2 MB of data, 32 768 line MACs, 75 KB of nodes) encoded into a
// routed frame. B/op is the frame plus the metadata prefix the data chunk
// outgrew (core.Closure.AppendTo).
func BenchmarkEncodeClosureFrame2M(b *testing.B) {
	closure := patternedClosure(32768, 75<<10, 2<<20)
	b.SetBytes(int64(closure.WireSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frameSink = closureFrame(monitorRoute, closure)
	}
}
