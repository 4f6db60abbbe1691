package mmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"mmt/internal/core"
)

// The migration path moves a buffer's bytes twice — region to wire frame,
// wire frame to region — and lends or hands over everything else. These
// tests pin what that must never let through: a sender, a receiver or an
// adversary reaching memory that is no longer (or not yet) theirs.

// linkedPair is a two-machine cluster with one link.
func linkedPair(t *testing.T, opts ...Option) (c *Cluster, link *Link, sender, receiver *Enclave) {
	t.Helper()
	c, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	sender, receiver = a.Spawn("producer", nil), b.Spawn("consumer", nil)
	if link, err = c.Connect(sender, receiver); err != nil {
		t.Fatal(err)
	}
	return c, link, sender, receiver
}

// patterned fills n bytes with a pattern that depends on seed.
func patterned(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7) + byte(i>>8)
	}
	return p
}

// retainer keeps every closure message it passes through — the very
// slice the receiver is handed, not a copy.
type retainer struct{ kept [][]byte }

func (r *retainer) Intercept(m WireMessage) []WireMessage {
	if m.Kind == WireClosure {
		r.kept = append(r.kept, m.Payload)
	}
	return []WireMessage{m}
}

// TestDelegationSharesNoMemory: once a delegation completes, nothing the
// sender or a wire adversary does to memory it still holds reaches the
// receiver's region, and nothing reaches the sender's.
func TestDelegationSharesNoMemory(t *testing.T) {
	cases := []struct {
		name string
		mode TransferMode
		// after runs once the delegation is complete and returns the bytes
		// the sender's buffer must then hold (nil: the buffer is gone).
		after func(t *testing.T, sent *Buffer, wire *retainer, old []byte) []byte
	}{
		{"sender overwrites its buffer after a copy", OwnershipCopy,
			func(t *testing.T, sent *Buffer, _ *retainer, old []byte) []byte {
				fresh := patterned(len(old), 0x5A)
				if err := sent.Write(0, fresh); err != nil {
					t.Fatal(err)
				}
				return fresh
			}},
		{"adversary scribbles on the delivered closure after a copy", OwnershipCopy,
			func(t *testing.T, _ *Buffer, wire *retainer, old []byte) []byte {
				scribble(t, wire)
				return old
			}},
		{"adversary scribbles on the delivered closure after a transfer", OwnershipTransfer,
			func(t *testing.T, _ *Buffer, wire *retainer, _ []byte) []byte {
				scribble(t, wire)
				return nil
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, link, sender, receiver := linkedPair(t, WithTreeLevels(2), WithRegions(6))
			buf, err := link.NewBuffer(sender)
			if err != nil {
				t.Fatal(err)
			}
			old := patterned(buf.Size(), 1)
			if err := buf.Write(0, old); err != nil {
				t.Fatal(err)
			}
			wire := &retainer{}
			c.SetInterposer(wire)
			if err := link.Delegate(buf, tc.mode); err != nil {
				t.Fatal(err)
			}
			got, err := link.Receive(receiver)
			if err != nil {
				t.Fatal(err)
			}
			wantSender := tc.after(t, buf, wire, old)
			if data, err := got.Read(0, len(old)); err != nil || !bytes.Equal(data, old) {
				t.Fatalf("receiver's buffer changed after the delegation completed (err %v)", err)
			}
			if wantSender != nil {
				if data, err := buf.Read(0, len(wantSender)); err != nil || !bytes.Equal(data, wantSender) {
					t.Fatalf("sender's buffer does not hold what the sender last wrote (err %v)", err)
				}
			}
		})
	}
}

func scribble(t *testing.T, wire *retainer) {
	t.Helper()
	if len(wire.kept) != 1 {
		t.Fatalf("retained %d closures, want 1", len(wire.kept))
	}
	for i := range wire.kept[0] {
		wire.kept[0][i] ^= 0xFF
	}
}

// closureSections walks a closure frame — 2-byte conn-id length, conn id,
// 22-byte header, then four length-prefixed chunks — and returns an
// offset inside each section. The header offset lands in the counter
// hint: a flipped address hint is rejected just the same, but the nack
// then names a delegation the sender never made.
func closureSections(t *testing.T, frame []byte) map[string]int {
	t.Helper()
	const headerSize, counterHint = 22, 14
	off := 2 + int(binary.LittleEndian.Uint16(frame))
	at := map[string]int{"header": off + counterHint}
	off += headerSize
	for _, name := range []string{"sealed root", "tree nodes", "line MACs", "data"} {
		n := int(binary.LittleEndian.Uint32(frame[off:]))
		if n == 0 || off+4+n > len(frame) {
			t.Fatalf("closure frame: %s chunk of %d bytes at offset %d of %d", name, n, off, len(frame))
		}
		at[name] = off + 4 + n/2
		off += 4 + n
	}
	if off != len(frame) {
		t.Fatalf("closure frame: %d trailing bytes", len(frame)-off)
	}
	return at
}

// TestFlippedClosureSectionRejected: one flipped byte in any section of
// the closure in flight is rejected with the section's sentinel, installs
// nothing, and leaves the sender's buffer readable and still delegable.
func TestFlippedClosureSectionRejected(t *testing.T) {
	cases := []struct {
		section string
		want    error
	}{
		{"header", ErrAuth},
		{"sealed root", ErrAuth},
		{"tree nodes", ErrIntegrity},
		{"line MACs", ErrIntegrity},
		{"data", ErrIntegrity},
	}
	c, link, sender, receiver := linkedPair(t, WithTreeLevels(2), WithRegions(6))
	for _, tc := range cases {
		t.Run(tc.section, func(t *testing.T) {
			buf, err := link.NewBuffer(sender)
			if err != nil {
				t.Fatal(err)
			}
			want := patterned(buf.Size(), 3)
			if err := buf.Write(0, want); err != nil {
				t.Fatal(err)
			}
			flipped := 0
			c.SetInterposer(tamperFunc(func(m WireMessage) []WireMessage {
				if m.Kind == WireClosure {
					m.Payload[closureSections(t, m.Payload)[tc.section]] ^= 0x10 // in place: the frame is the wire's
					flipped++
				}
				return []WireMessage{m}
			}))
			err = link.Delegate(buf, OwnershipTransfer)
			c.SetInterposer(nil)
			if flipped != 1 || !errors.Is(err, tc.want) {
				t.Fatalf("%d closures flipped, Delegate returned %v, want %v", flipped, err, tc.want)
			}
			if _, err := link.Receive(receiver); !errors.Is(err, ErrNoPending) {
				t.Fatalf("a tampered closure was installed (Receive: %v)", err)
			}
			if data, err := buf.Read(0, len(want)); err != nil || !bytes.Equal(data, want) {
				t.Fatalf("sender's buffer unreadable after the rejection (err %v)", err)
			}
			// The rejection cost the sender nothing: the same buffer goes
			// through untouched.
			if err := link.Delegate(buf, OwnershipTransfer); err != nil {
				t.Fatalf("retry after the rejection: %v", err)
			}
			got, err := link.Receive(receiver)
			if err != nil {
				t.Fatal(err)
			}
			if data, err := got.Read(0, len(want)); err != nil || !bytes.Equal(data, want) {
				t.Fatalf("retried delegation delivered different bytes (err %v)", err)
			}
			if err := got.Free(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDelegateAllocBudget pins the migration copy budget: delegating and
// receiving a 2 MB buffer may allocate at most 1.5x the closure's wire
// size — the frame itself, the metadata prefix its data chunk outgrew
// (core.Closure.AppendTo) and the receiver's decoded tree and line MACs.
// A reintroduced copy of the payload (each is another ~1x) fails here, not
// only in the benchmark.
func TestDelegateAllocBudget(t *testing.T) {
	c, link, sender, receiver := linkedPair(t)
	if size := c.Geometry().DataSize(); size != 2<<20 {
		t.Fatalf("default buffer is %d bytes, want 2 MB", size)
	}
	spy := &retainer{}
	c.SetInterposer(spy)
	payload := patterned(256<<10, 7)
	migrate := func() uint64 {
		buf, err := link.NewBuffer(sender)
		if err != nil {
			t.Fatal(err)
		}
		if err := buf.Write(0, payload); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = link.Delegate(buf, OwnershipTransfer)
		got, rerr := link.Receive(receiver)
		runtime.ReadMemStats(&after)
		if err := errors.Join(err, rerr); err != nil {
			t.Fatal(err)
		}
		if data, err := got.Read(0, len(payload)); err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("delegated buffer reads back wrong (err %v)", err)
		}
		if err := got.Free(); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	migrate() // the first migration sizes both machines' line planes
	spy.kept = nil
	allocated := migrate()
	if len(spy.kept) != 1 {
		t.Fatalf("saw %d closures on the wire, want 1", len(spy.kept))
	}
	wire := uint64(len(spy.kept[0]))
	if budget := wire * 3 / 2; allocated > budget {
		t.Fatalf("Delegate+Receive allocated %d bytes for a %d-byte closure: over the %d-byte budget", allocated, wire, budget)
	}
	t.Logf("Delegate+Receive allocated %d bytes for a %d-byte closure (%.2fx)", allocated, wire, float64(allocated)/float64(wire))
}

// TestFreeLeavesNoPlaintext: freeing a buffer returns its region to the
// machine's pool holding only ciphertext. The teardown invalidates the MMT
// without decrypting, so memory that goes back to the normal pool never
// holds what the enclave wrote.
func TestFreeLeavesNoPlaintext(t *testing.T) {
	_, link, sender, _ := linkedPair(t)
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("a secret that must not outlive its buffer in physical memory!!!")
	for off := 0; off < buf.Size(); off += buf.Size() / 8 {
		if err := buf.Write(off, secret); err != nil {
			t.Fatal(err)
		}
	}
	pmo, err := buf.mmtOf()
	if err != nil {
		t.Fatal(err)
	}
	mon := sender.machine.mon
	free := mon.PoolFree()
	if err := buf.Free(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(mon.Node().Controller().Memory().RegionData(pmo.Region), secret) {
		t.Fatalf("region %d holds the secret in plaintext after Free", pmo.Region)
	}
	if got := mon.PoolFree(); got != free+1 {
		t.Fatalf("pool holds %d regions after Free, want %d", got, free+1)
	}
}

// dropClosures is a network that loses every closure.
var dropClosures = tamperFunc(func(m WireMessage) []WireMessage {
	if m.Kind == WireClosure {
		return nil
	}
	return []WireMessage{m}
})

// TestDelegateLostClosureUnacked: a closure the network loses completes
// nothing, so Delegate must not report success. It reports ErrUnacked,
// and the buffer stays in flight: the sender cannot tell a lost closure
// from a lost ack.
func TestDelegateLostClosureUnacked(t *testing.T) {
	c, link, sender, receiver := linkedPair(t)
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	c.SetInterposer(dropClosures)
	if err := link.Delegate(buf, OwnershipTransfer); !errors.Is(err, ErrUnacked) {
		t.Fatalf("Delegate of a lost closure: %v, want ErrUnacked", err)
	}
	c.SetInterposer(nil)
	if _, err := link.Receive(receiver); !errors.Is(err, ErrNoPending) {
		t.Fatalf("Receive after a lost closure: %v, want ErrNoPending", err)
	}
	if err := buf.Write(0, []byte("x")); !errors.Is(err, core.ErrState) {
		t.Fatalf("Write to a buffer in flight: %v, want core.ErrState", err)
	}
	if _, err := c.Save(&bytes.Buffer{}); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("Save with a send in flight: %v, want ErrNotQuiescent", err)
	}
}

// TestDelegateArmsFromPool: a receiver whose pool ran dry at its last
// accept has nothing armed. The next closure arms a buffer from the pool
// if the receiver has freed one since; if not, it is refused with
// ErrPoolEmpty — no security verdict, since it is a resource refusal —
// and the nack returns the sender's buffer to valid.
func TestDelegateArmsFromPool(t *testing.T) {
	for _, free := range []bool{true, false} {
		t.Run(map[bool]string{true: "freed", false: "kept"}[free], func(t *testing.T) {
			c, link, sender, receiver := linkedPair(t, WithRegions(3), WithTracing(NewTraceSink()))
			kept := fillReceiver(t, link, sender, receiver)
			if free {
				for _, b := range kept {
					if err := b.Free(); err != nil {
						t.Fatal(err)
					}
				}
			}
			buf, err := link.NewBuffer(sender)
			if err != nil {
				t.Fatal(err)
			}
			if err := buf.Write(0, []byte("round 3")); err != nil {
				t.Fatal(err)
			}
			err = link.Delegate(buf, OwnershipTransfer)
			if free {
				if err != nil {
					t.Fatalf("round 3 after the receiver freed its buffers: %v", err)
				}
				got, err := link.Receive(receiver)
				if err != nil {
					t.Fatal(err)
				}
				if data, err := got.Read(0, 7); err != nil || string(data) != "round 3" {
					t.Fatalf("round 3 delivered %q, %v", data, err)
				}
				return
			}
			if !errors.Is(err, ErrPoolEmpty) {
				t.Fatalf("round 3 into a dry pool: %v, want ErrPoolEmpty", err)
			}
			for _, e := range c.Events() {
				switch e.Kind {
				case EvIntegrityFail, EvAuthFail, EvReplayReject, EvReorderReject, EvMigrationReject:
					t.Fatalf("a resource refusal wrote a verdict: %+v", e)
				}
			}
			if err := buf.Write(0, []byte("writable again")); err != nil {
				t.Fatalf("sender after the refusal: %v", err)
			}
			if _, err := c.Save(&bytes.Buffer{}); err != nil {
				t.Fatalf("Save after the refusal: %v", err)
			}
		})
	}
}

// fillReceiver delegates three buffers, which the receiver keeps: with
// WithRegions(3) its pool is then dry and nothing is armed.
func fillReceiver(t *testing.T, link *Link, sender, receiver *Enclave) []*Buffer {
	t.Helper()
	var kept []*Buffer
	for round := 0; round < 3; round++ {
		buf, err := link.NewBuffer(sender)
		if err != nil {
			t.Fatal(err)
		}
		if err := link.Delegate(buf, OwnershipTransfer); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got, err := link.Receive(receiver)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, got)
	}
	return kept
}

// TestImportArmsFromPool: an artifact reaching a receiver with nothing
// armed arms a buffer from the pool, and is refused with ErrPoolEmpty
// while the pool is dry; the refused artifact imports once a buffer is
// freed.
func TestImportArmsFromPool(t *testing.T) {
	_, link, sender, receiver := linkedPair(t, WithRegions(3))
	kept := fillReceiver(t, link, sender, receiver)
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, []byte("by file")); err != nil {
		t.Fatal(err)
	}
	art, err := link.Export(buf, OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.Import(art, receiver); !errors.Is(err, ErrPoolEmpty) {
		t.Fatalf("Import into a dry pool: %v, want ErrPoolEmpty", err)
	}
	if err := kept[0].Free(); err != nil {
		t.Fatal(err)
	}
	got, err := link.Import(art, receiver)
	if err != nil {
		t.Fatalf("Import after a Free: %v", err)
	}
	if data, err := got.Read(0, 7); err != nil || string(data) != "by file" {
		t.Fatalf("imported %q, %v", data, err)
	}
}

// TestFreeRefusesProtocolBuffers: the armed receive buffer (waiting) and a
// buffer whose send is in flight (sending) belong to the delegation
// protocol until it lets go. Free refuses both, and their regions stay
// out of the pool, so no later buffer draws a region the controller still
// holds and no delegation lands in a freed buffer.
func TestFreeRefusesProtocolBuffers(t *testing.T) {
	c, link, sender, receiver := linkedPair(t)
	armed := receiver.Buffers()
	if len(armed) != 1 {
		t.Fatalf("receiver holds %d buffers after Connect, want the armed one", len(armed))
	}
	buf, err := receiver.Buffer(armed[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Free(); !errors.Is(err, core.ErrState) {
		t.Fatalf("Free of the armed buffer: %v, want core.ErrState", err)
	}
	if _, err := link.NewBuffer(receiver); err != nil {
		t.Fatalf("NewBuffer after the refused Free: %v", err)
	}

	out, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	c.SetInterposer(dropClosures)
	if err := link.Delegate(out, OwnershipTransfer); !errors.Is(err, ErrUnacked) {
		t.Fatal(err)
	}
	c.SetInterposer(nil)
	pool := sender.machine.mon.PoolFree()
	if err := out.Free(); !errors.Is(err, core.ErrState) {
		t.Fatalf("Free of a buffer in flight: %v, want core.ErrState", err)
	}
	if got := sender.machine.mon.PoolFree(); got != pool {
		t.Fatalf("pool %d after the refused Free, want %d", got, pool)
	}
}
