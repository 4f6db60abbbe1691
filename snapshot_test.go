package mmt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mmt/internal/sim"
	"mmt/internal/snap"
	"mmt/internal/store"
)

// persistSecret is the payload every persistence test pushes through a
// delegated buffer; restored clusters must read it back verbatim.
var persistSecret = []byte("durable secret payload 0123456789")

// buildPersistCluster builds the standard two-machine workload: alice's
// producer delegates a written buffer to bob's consumer, who has received
// it. The cluster is quiescent on return. Error-returning so round-trip
// workers can run it off the test goroutine.
func buildPersistCluster() (*Cluster, *Link, error) {
	c, err := New(WithTreeLevels(2), WithRegions(4))
	if err != nil {
		return nil, nil, err
	}
	a, err := c.AddMachine("alice")
	if err != nil {
		return nil, nil, err
	}
	b, err := c.AddMachine("bob")
	if err != nil {
		return nil, nil, err
	}
	sender := a.Spawn("producer", []byte("code-a"))
	receiver := b.Spawn("consumer", []byte("code-b"))
	link, err := c.Connect(sender, receiver)
	if err != nil {
		return nil, nil, err
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		return nil, nil, err
	}
	if err := buf.Write(0, persistSecret); err != nil {
		return nil, nil, err
	}
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		return nil, nil, err
	}
	if _, err := link.Receive(receiver); err != nil {
		return nil, nil, err
	}
	return c, link, nil
}

func persistCluster(t testing.TB) (*Cluster, *Link) {
	t.Helper()
	c, link, err := buildPersistCluster()
	if err != nil {
		t.Fatal(err)
	}
	return c, link
}

// validBuffers resolves the named machine's first enclave's buffers that
// hold live (valid-state) data — filtering out the armed receive buffers
// every link endpoint also owns. This is the restored-handle path
// (Enclave.Buffers + Enclave.Buffer) every load test uses.
func validBuffers(c *Cluster, machine string) ([]*Buffer, error) {
	m, ok := c.Machine(machine)
	if !ok {
		return nil, fmt.Errorf("machine %q missing after restore", machine)
	}
	encs := m.Enclaves()
	if len(encs) == 0 {
		return nil, fmt.Errorf("no enclaves on %q after restore", machine)
	}
	var out []*Buffer
	for _, cap := range encs[0].Buffers() {
		buf, err := encs[0].Buffer(cap)
		if err != nil {
			return nil, err
		}
		st, err := buf.Stats()
		if err != nil {
			return nil, err
		}
		if st.State == "valid" {
			out = append(out, buf)
		}
	}
	return out, nil
}

// readBackE fetches n bytes from the single live buffer on machine.
func readBackE(c *Cluster, machine string, n int) ([]byte, error) {
	bufs, err := validBuffers(c, machine)
	if err != nil {
		return nil, err
	}
	if len(bufs) != 1 {
		return nil, fmt.Errorf("want 1 live buffer on %s, got %d", machine, len(bufs))
	}
	return bufs[0].Read(0, n)
}

func readBack(t *testing.T, c *Cluster, machine string, n int) []byte {
	t.Helper()
	data, err := readBackE(c, machine, n)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSaveLoadSaveByteIdentical is the snapshot determinism contract:
// Save → Load → Save must reproduce the first snapshot byte for byte.
// The sweep runs the round trip on 1/2/4/8 concurrent clusters (the
// -race run then also proves the persistence surface shares no state
// across clusters).
func TestSaveLoadSaveByteIdentical(t *testing.T) {
	roundTrip := func() error {
		c, _, err := buildPersistCluster()
		if err != nil {
			return err
		}
		var first bytes.Buffer
		man, err := c.Save(&first)
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		if man.Schema != "mmt-manifest/v1" || len(man.Machines) != 2 || len(man.Links) != 1 {
			return fmt.Errorf("bad manifest: %+v", man)
		}
		c2, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		// Byte-compare before touching the restored cluster: reading data
		// (correctly) advances its simulated clock and stats.
		var second bytes.Buffer
		if _, err := c2.Save(&second); err != nil {
			return fmt.Errorf("re-save: %w", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			return fmt.Errorf("second snapshot differs: %d vs %d bytes", first.Len(), second.Len())
		}
		if got, err := readBackE(c2, "bob", len(persistSecret)); err != nil || !bytes.Equal(got, persistSecret) {
			return fmt.Errorf("restored payload %q (%v)", got, err)
		}
		return nil
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[w] = roundTrip()
				}()
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
			}
		})
	}
}

// TestLoadVerifiesHash: any flipped byte in a snapshot stream fails the
// load with ErrBadSnapshot — there is no partially-trusted restore.
func TestLoadVerifiesHash(t *testing.T) {
	c, _ := persistCluster(t)
	var snap bytes.Buffer
	if _, err := c.Save(&snap); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{len("mmt-snap/v1\x00") + 3, snap.Len() / 2, snap.Len() - 1} {
		tampered := append([]byte(nil), snap.Bytes()...)
		tampered[off] ^= 1
		if _, err := Load(bytes.NewReader(tampered)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("flip at %d: want ErrBadSnapshot, got %v", off, err)
		}
	}
}

// TestLoadRejectsStructuralOptions: the snapshot pins the structural
// settings; passing them to Load (or Open) is a caller error.
func TestLoadRejectsStructuralOptions(t *testing.T) {
	c, _ := persistCluster(t)
	var snap bytes.Buffer
	if _, err := c.Save(&snap); err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Option{WithTreeLevels(3), WithRegions(2), WithProfile(sim.IntelProfile()), WithNetLatency(1e-6)} {
		if _, err := Load(bytes.NewReader(snap.Bytes()), opt); err == nil {
			t.Error("Load accepted a structural option")
		}
	}
	if _, err := Open(t.TempDir(), WithStore("x")); err == nil {
		t.Error("Open accepted WithStore")
	}
}

// TestSaveNotQuiescent: an unacked delegation in flight (an adversary is
// holding the closure) makes Save fail with ErrNotQuiescent rather than
// capture a torn cluster.
func TestSaveNotQuiescent(t *testing.T) {
	c, err := New(WithTreeLevels(2), WithRegions(6))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.AddMachine("alice")
	b, _ := c.AddMachine("bob")
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the first closure on the wire (reorderer semantics: it is
	// released swapped with the second).
	var held *WireMessage
	c.SetInterposer(tamperFunc(func(m WireMessage) []WireMessage {
		if m.Kind != WireClosure {
			return []WireMessage{m}
		}
		if held == nil {
			cp := m
			held = &cp
			return nil
		}
		first := *held
		held = nil
		first.ArriveAt = m.ArriveAt
		return []WireMessage{m, first}
	}))
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Delegate(buf, OwnershipTransfer); !errors.Is(err, ErrUnacked) {
		t.Fatalf("held delegation: %v, want ErrUnacked", err)
	}
	if _, err := c.Save(&bytes.Buffer{}); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("want ErrNotQuiescent with a held closure, got %v", err)
	}
	// Second delegation releases the swapped pair; the protocol rejects
	// the out-of-order closure and the cluster settles again.
	buf2, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Delegate(buf2, OwnershipTransfer); err == nil {
		t.Fatal("re-ordered delegation pair was accepted")
	}
	c.SetInterposer(nil)
	if _, err := c.Save(&bytes.Buffer{}); err != nil {
		t.Fatalf("save after settling: %v", err)
	}
}

// TestStoreLifecycle: New(WithStore) → work → Close (final checkpoint) →
// Open resumes the exact state and delegation keeps working; a second New
// on the same committed store is refused.
func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	c, err := New(WithTreeLevels(2), WithRegions(4), WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.AddMachine("alice")
	b, _ := c.AddMachine("bob")
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, persistSecret); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Dirty-only movement (past the secret) then a delta checkpoint.
	if err := buf.Write(64, []byte("moremoremore")); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := New(WithStore(dir)); err == nil {
		t.Fatal("New accepted a committed store")
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, c2, "alice", len(persistSecret)); !bytes.Equal(got, persistSecret) {
		t.Fatalf("restored payload %q", got)
	}
	// Delegation resumes on the restored link.
	links := c2.Links()
	if len(links) != 1 {
		t.Fatalf("want 1 restored link, got %d", len(links))
	}
	link2 := links[0]
	bufs, err := validBuffers(c2, "alice")
	if err != nil || len(bufs) != 1 {
		t.Fatalf("alice buffers after resume: %v (%v)", bufs, err)
	}
	if err := link2.Delegate(bufs[0], OwnershipTransfer); err != nil {
		t.Fatalf("delegation after resume: %v", err)
	}
	bm, _ := c2.Machine("bob")
	if _, err := link2.Receive(bm.Enclaves()[0]); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third generation sees the delegation's outcome.
	c3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, c3, "bob", len(persistSecret)); !bytes.Equal(got, persistSecret) {
		t.Fatalf("delegated payload lost across resume: %q", got)
	}
	if err := c3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenEmptyStore: a store directory that never committed is not a
// resumable cluster.
func TestOpenEmptyStore(t *testing.T) {
	dir := t.TempDir()
	c, err := New(WithTreeLevels(2), WithRegions(4), WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Attach only; never checkpoint. Close writes the final checkpoint, so
	// drop the store first (white box: simulate a crash before any commit).
	c.ckpt.Close()
	c.ckpt = nil
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
	if _, err := Open(filepath.Join(dir, "never-existed")); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("fresh dir: want ErrNoSnapshot, got %v", err)
	}
}

// TestCheckpointCrashConsistency is the end-to-end crash simulator: the
// cluster checkpoints into an in-memory journaled store while doing real
// work, then every kill point (not just batch boundaries) is replayed
// under every disk model. Each recovered image must open to exactly one
// of the committed cluster states — verified down to the snapshot hash by
// openFromStore's re-encode check — or hold no commit at all (a crash
// before the first commit became durable). Torn or hybrid state is a
// failure anywhere.
func TestCheckpointCrashConsistency(t *testing.T) {
	c, err := New(WithTreeLevels(2), WithRegions(4))
	if err != nil {
		t.Fatal(err)
	}
	fs := store.NewMemFS()
	st, err := store.Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	c.ckpt = st // white box: an in-memory store instead of WithStore's Dir

	oracle := map[uint64]string{} // epoch -> hex-ish oracle key (hash bytes as string)
	checkpoint := func() {
		t.Helper()
		m, err := c.buildModel()
		if err != nil {
			t.Fatal(err)
		}
		want := snap.Hash(m) // nothing cached: the oracle is the definition
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		oracle[st.Epoch()] = string(want[:])
	}

	// Epoch 1: base (structure just appeared).
	a, _ := c.AddMachine("alice")
	b, _ := c.AddMachine("bob")
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint()
	// Epoch 2: base again (buffer allocation is structural).
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, persistSecret); err != nil {
		t.Fatal(err)
	}
	checkpoint()
	// Epoch 3: dirty-line delta only.
	if err := buf.Write(64, bytes.Repeat([]byte("x"), 200)); err != nil {
		t.Fatal(err)
	}
	checkpoint()
	// Epoch 4: base (delegation moved capabilities).
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Receive(receiver); err != nil {
		t.Fatal(err)
	}
	checkpoint()

	if got := len(oracle); got != 4 {
		t.Fatalf("expected 4 committed epochs, got %d", got)
	}

	// The sweep. Every kill point k is "crashed just before journal op k".
	sawCommit := false
	for k := 0; k <= fs.Ops(); k++ {
		for _, mode := range store.ReplayModes {
			name := fmt.Sprintf("kill=%d/%s", k, mode)
			rfs := store.NewMemFSFrom(fs.StateAt(k, mode))
			rst, err := store.Open(rfs)
			if err != nil {
				t.Fatalf("%s: recovery open: %v", name, err)
			}
			if !rst.HasCommit() {
				rst.Close()
				continue
			}
			cr, err := rst.Committed()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wantHash, ok := oracle[cr.Epoch]
			if !ok {
				t.Fatalf("%s: recovered epoch %d was never committed", name, cr.Epoch)
			}
			if string(cr.RootHash[:]) != wantHash {
				t.Fatalf("%s: epoch %d hash mismatch", name, cr.Epoch)
			}
			rc, err := openFromStore(rst, defaultSettings())
			if err != nil {
				t.Fatalf("%s: resume: %v", name, err)
			}
			// openFromStore re-encoded the restored cluster and verified it
			// against cr.RootHash; reading the payload back is the cherry on
			// top for epochs that carried it.
			if cr.Epoch >= 2 {
				owner := "alice"
				if cr.Epoch >= 4 {
					owner = "bob"
				}
				if got := readBack(t, rc, owner, len(persistSecret)); !bytes.Equal(got, persistSecret) {
					t.Fatalf("%s: payload %q", name, got)
				}
			}
			rc.ckpt.Close()
			sawCommit = true
		}
	}
	if !sawCommit {
		t.Fatal("sweep never saw a committed store")
	}
	// A clean shutdown recovers the newest epoch under every disk model.
	for _, mode := range store.ReplayModes {
		rfs := store.NewMemFSFrom(fs.StateAt(fs.Ops(), mode))
		rst, err := store.Open(rfs)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := rst.Committed()
		if err != nil {
			t.Fatal(err)
		}
		if cr.Epoch != 4 {
			t.Fatalf("clean shutdown under %s recovered epoch %d, want 4", mode, cr.Epoch)
		}
		rst.Close()
	}
}

// TestArtifactRoundTrip: export a closure from one cluster instance, load
// a snapshot of the same cluster elsewhere, and import the serialized
// artifact there — "save on machine A, load on machine B, delegation
// resumes". The artifact goes through WriteTo/ReadArtifact to prove the
// byte form carries everything.
func TestArtifactRoundTrip(t *testing.T) {
	c, err := New(WithTreeLevels(2), WithRegions(4))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.AddMachine("alice")
	b, _ := c.AddMachine("bob")
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, persistSecret); err != nil {
		t.Fatal(err)
	}

	// Snapshot the cluster BEFORE the export: the loaded copy's link has
	// the old counter floor, so the artifact (sealed after the save) is
	// fresh for it.
	var snap bytes.Buffer
	if _, err := c.Save(&snap); err != nil {
		t.Fatal(err)
	}
	art, err := link.Export(buf, OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	// Ownership left with the artifact: the local buffer is consumed.
	if _, err := buf.Read(0, 8); err == nil {
		t.Fatal("exported buffer still readable after ownership transfer")
	}
	var file bytes.Buffer
	if _, err := art.WriteTo(&file); err != nil {
		t.Fatal(err)
	}

	c2, err := Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	art2, err := ReadArtifact(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if art2.LinkID() != link.ID() || art2.Mode() != OwnershipTransfer {
		t.Fatalf("artifact header: %q %v", art2.LinkID(), art2.Mode())
	}
	link2, ok := c2.Link(link.ID())
	if !ok {
		t.Fatal("link missing after load")
	}
	bm, _ := c2.Machine("bob")
	got, err := link2.Import(art2, bm.Enclaves()[0])
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	data, err := got.Read(0, len(persistSecret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, persistSecret) {
		t.Fatalf("imported payload %q", data)
	}
	// Replay: importing the same artifact again must be rejected (the
	// counter floor moved past it).
	if _, err := link2.Import(art2, bm.Enclaves()[0]); err == nil {
		t.Fatal("replayed artifact accepted")
	}
}

// TestArtifactTamperDetected: file-level corruption fails ReadArtifact's
// checksum; corruption past the checksum (a forged frame around a
// tampered closure) is rejected by the import's cryptographic checks.
func TestArtifactTamperDetected(t *testing.T) {
	c, err := New(WithTreeLevels(2), WithRegions(4))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.AddMachine("alice")
	b, _ := c.AddMachine("bob")
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	art, err := link.Export(buf, OwnershipTransfer)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := art.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), file.Bytes()...)
	flipped[len(flipped)/2] ^= 1
	if _, err := ReadArtifact(bytes.NewReader(flipped)); !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("want ErrBadArtifact, got %v", err)
	}
	// Forge: tamper the closure and rewrite a valid frame around it.
	forged := &Artifact{linkID: art.linkID, mode: art.mode, wire: append([]byte(nil), art.wire...)}
	forged.wire[len(forged.wire)/2] ^= 1
	if _, err := link.Import(forged, receiver); err == nil {
		t.Fatal("tampered closure imported")
	}
}

// TestManifestJSON: the manifest round-trips through its JSON schema with
// the fields CI consumes.
func TestManifestJSON(t *testing.T) {
	c, _ := persistCluster(t)
	man, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := man.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	decoded, err := ParseManifest(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, man) || decoded.Schema != "mmt-manifest/v1" {
		t.Fatalf("manifest did not round-trip:\n got %+v\nwant %+v", decoded, man)
	}
	if len(man.RootHash) != 64 {
		t.Fatalf("root hash %q", man.RootHash)
	}
	if man.Machines[0].Name != "alice" || man.Machines[1].LiveRegions == 0 {
		t.Fatalf("machines: %+v", man.Machines)
	}
}

// TestCrossProcessMigration is the acceptance test for the two-file
// store: a cluster checkpointed by one OS process is opened by a second
// process (a re-exec of this test binary), which completes a delegation
// and checkpoints; the first process then reopens the store and observes
// the delegation's result.
func TestCrossProcessMigration(t *testing.T) {
	if dir := os.Getenv("MMT_MIGRATION_CHILD"); dir != "" {
		crossProcessChild(t, dir)
		return
	}
	dir := t.TempDir()
	c, err := New(WithTreeLevels(2), WithRegions(4), WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.AddMachine("alice")
	b, _ := c.AddMachine("bob")
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, persistSecret); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // final checkpoint commits the state
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrossProcessMigration$")
	cmd.Env = append(os.Environ(), "MMT_MIGRATION_CHILD="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process failed: %v\n%s", err, out)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := readBack(t, c2, "bob", len(persistSecret)); !bytes.Equal(got, persistSecret) {
		t.Fatalf("delegation done in the child is not visible: %q", got)
	}
	if bufs, err := validBuffers(c2, "alice"); err != nil || len(bufs) != 0 {
		t.Fatalf("ownership transfer left the sender holding %v (%v)", bufs, err)
	}
}

// crossProcessChild is the second process: open, delegate, checkpoint.
func crossProcessChild(t *testing.T, dir string) {
	c, err := Open(dir)
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	links := c.Links()
	if len(links) != 1 {
		t.Fatalf("child: want 1 link, got %d", len(links))
	}
	link := links[0]
	bufs, err := validBuffers(c, "alice")
	if err != nil || len(bufs) != 1 {
		t.Fatalf("child: alice buffers %v (%v)", bufs, err)
	}
	if err := link.Delegate(bufs[0], OwnershipTransfer); err != nil {
		t.Fatalf("child delegation: %v", err)
	}
	bm, _ := c.Machine("bob")
	if _, err := link.Receive(bm.Enclaves()[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWireKindValuesAligned pins the public WireKind values to the
// internal transport's (the adapter converts by cast).
func TestWireKindValuesAligned(t *testing.T) {
	if WireData != 0 || WireClosure != 1 || WireControl != 2 {
		t.Fatalf("wire kinds drifted: %d %d %d", WireData, WireClosure, WireControl)
	}
	names := map[WireKind]string{WireData: "data", WireClosure: "closure", WireControl: "control", WireKind(9): "unknown"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// FuzzParseManifest: a manifest is read back by mmt-stat from a file, so
// ParseManifest faces outside input. It must never panic, must refuse
// with ErrBadManifest and no manifest, and what it accepts must write a
// manifest that parses to an equal value.
func FuzzParseManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			if m != nil || !errors.Is(err, ErrBadManifest) {
				t.Fatalf("manifest %v and err %v, want nil and ErrBadManifest", m, err)
			}
			return
		}
		var out bytes.Buffer
		if err := m.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		if back, err := ParseManifest(out.Bytes()); err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("accepted manifest does not round-trip: %v", err)
		}
	})
}
