package mmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"testing"
	"testing/iotest"

	"mmt/internal/snap"
	"mmt/internal/store"
)

// sealed appends the (unkeyed) state-hash trailer Save writes, so a
// crafted model gets past both the decoder's and the trailer's check and
// reaches restore.
func sealed(m *snap.Model) []byte {
	sum := snap.Hash(m)
	return append(snap.Encode(m), sum[:]...)
}

// committed returns an in-memory store whose one commit holds recs, pinned
// to the state hash of m — what Open finds on disk.
func committed(t *testing.T, m *snap.Model, recs ...store.Record) *store.Store {
	t.Helper()
	st, err := store.Open(store.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Commit(snap.Hash(m)); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCraftedSnapshotsFailClosed: correctly hashed snapshots whose fields
// used to reach tree.ForLevels and Controller.region and panic there. The
// trailer hash is unkeyed, so this is outside input; Load and Open must
// answer ErrBadSnapshot.
func TestCraftedSnapshotsFailClosed(t *testing.T) {
	c, _ := persistCluster(t)
	crafts := map[string]func(m *snap.Model){
		"region 9999": func(m *snap.Model) {
			mm := &m.Machines[1]
			mm.Regions[0].Index = 9999
			for i := range mm.Mon.MMTs {
				if mm.Mon.MMTs[i].Region == 0 {
					mm.Mon.MMTs[i].Region = 9999
				}
			}
		},
		"tree levels 0":  func(m *snap.Model) { m.TreeLevels = 0 },
		"tree levels 4G": func(m *snap.Model) { m.TreeLevels = 0xFFFFFFFF },
		"no regions":     func(m *snap.Model) { m.Regions = 0 },
	}
	for name, craft := range crafts {
		m, err := c.buildModel()
		if err != nil {
			t.Fatal(err)
		}
		if bob := m.Machines[1]; bob.Name != "bob" || len(bob.Regions) != 1 || bob.Regions[0].Index != 0 {
			t.Fatal("fixture changed: want bob holding live region 0")
		}
		craft(m)
		if got, err := Load(bytes.NewReader(sealed(m))); !errors.Is(err, ErrBadSnapshot) || got != nil {
			t.Errorf("Load, %s: cluster %v, err %v; want ErrBadSnapshot", name, got != nil, err)
		}
		st := committed(t, m, store.Record{Type: snap.RecBase, Payload: snap.Encode(m)})
		if got, err := openFromStore(st, defaultSettings()); !errors.Is(err, ErrBadSnapshot) || got != nil {
			t.Errorf("Open, %s: cluster %v, err %v; want ErrBadSnapshot", name, got != nil, err)
		}
		st.Close()
	}

	// The same coordinates arriving as delta records behind a good base.
	m, err := c.buildModel()
	if err != nil {
		t.Fatal(err)
	}
	base := store.Record{Type: snap.RecBase, Payload: snap.Encode(m)}
	deltas := map[string]snap.Patch{
		"region 9999": {Type: snap.RecRoot, Machine: "bob", Region: 9999},
		"node level":  {Type: snap.RecNode, Machine: "bob", Level: 7, Bytes: make([]byte, 48)},
		"node index":  {Type: snap.RecNode, Machine: "bob", Index: 1 << 30, Bytes: make([]byte, 48)},
		"line number": {Type: snap.RecLine, Machine: "bob", Index: 1 << 30, Bytes: make([]byte, 64)},
	}
	for name, p := range deltas {
		st := committed(t, m, base, p.Record())
		if got, err := openFromStore(st, defaultSettings()); !errors.Is(err, ErrBadSnapshot) || got != nil {
			t.Errorf("Open, delta %s: cluster %v, err %v; want ErrBadSnapshot", name, got != nil, err)
		}
		st.Close()
	}
}

// truncationsAndFlips calls try with every proper prefix of data and with
// data after a byte flip at every 97th offset.
func truncationsAndFlips(data []byte, try func(what string, mut []byte)) {
	for n := 0; n < len(data); n++ {
		try("truncation", data[:n])
	}
	for off := 0; off < len(data); off += 97 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		try("flip", mut)
	}
}

// TestLoadTable: no truncated or bit-flipped Save stream loads, panics, or
// fails with anything but ErrBadSnapshot. (The cluster has machines, a
// link and armed receive buffers but no live region, which keeps the
// stream to a few KB so every length can be tried.)
func TestLoadTable(t *testing.T) {
	c, err := New(WithTreeLevels(2), WithRegions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connect(a.Spawn("producer", []byte("code-a")), b.Spawn("consumer", []byte("code-b"))); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if _, err := c.Save(&stream); err != nil {
		t.Fatal(err)
	}
	if back, err := Load(bytes.NewReader(stream.Bytes())); err != nil {
		t.Fatalf("the unmodified stream must load: %v", err)
	} else {
		back.Close()
	}
	truncationsAndFlips(stream.Bytes(), func(what string, mut []byte) {
		if got, err := Load(bytes.NewReader(mut)); !errors.Is(err, ErrBadSnapshot) || got != nil {
			t.Fatalf("%s (%d of %d bytes): cluster %v, err %v", what, len(mut), stream.Len(), got != nil, err)
		}
	})
}

// TestArtifactFraming pins mmt-artifact/v1 to the bytes the hand-written
// framing produced (digest computed at the commit before the shared
// cursor) and runs the truncation/flip table over ReadArtifact.
func TestArtifactFraming(t *testing.T) {
	fill := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i)*7
		}
		return b
	}
	var buf bytes.Buffer
	pinned := &Artifact{linkID: "link-0", mode: OwnershipCopy, wire: fill(50, 0x61)}
	if _, err := pinned.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); buf.Len() != 85 || got != "f56f22adec2dc91598ff77bad2933947cd7753b393cbd5de9330d6b1da89aed6" {
		t.Fatalf("artifact framing drifted: %d bytes hashing to %s", buf.Len(), got)
	}

	buf.Reset()
	want := &Artifact{linkID: "link-0", mode: OwnershipTransfer, wire: fill(400, 0x62)}
	if _, err := want.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil || got.linkID != want.linkID || got.mode != want.mode || !bytes.Equal(got.wire, want.wire) {
		t.Fatalf("round trip: %+v, err %v", got, err)
	}
	truncationsAndFlips(buf.Bytes(), func(what string, mut []byte) {
		if got, err := ReadArtifact(bytes.NewReader(mut)); !errors.Is(err, ErrBadArtifact) || got != nil {
			t.Fatalf("%s (%d of %d bytes): artifact %v, err %v", what, len(mut), buf.Len(), got != nil, err)
		}
	})
	if got, err := ReadArtifact(iotest.ErrReader(io.ErrUnexpectedEOF)); got != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("failing reader: artifact %v, err %v", got != nil, err)
	}
}

// FuzzReadArtifact: an artifact file is outside input. ReadArtifact must
// never panic, must refuse with ErrBadArtifact and no artifact (a reader
// that fails is the only other error), and what it accepts must write
// back to exactly the input.
func FuzzReadArtifact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadArtifact(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadArtifact) || a != nil {
				t.Fatalf("artifact %v, err %v; want nil and ErrBadArtifact", a != nil, err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := a.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input writes back differently (err %v)", err)
		}
	})
}

// TestLoadRefusals: Load refuses, returning no cluster, a bad option,
// sampling without tracing (as New does), a reader that fails, a
// correctly hashed snapshot whose region no longer verifies, and a store
// path that cannot be opened.
func TestLoadRefusals(t *testing.T) {
	c, _ := persistCluster(t)
	var good bytes.Buffer
	if _, err := c.Save(&good); err != nil {
		t.Fatal(err)
	}
	m, err := c.buildModel()
	if err != nil {
		t.Fatal(err)
	}
	m.Machines[1].Regions[0].LineMACs[0] ^= 1
	file := t.TempDir() + "/file"
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		r    io.Reader
		opts []Option
		want error
	}{
		{"bad option", bytes.NewReader(good.Bytes()), []Option{WithSampling(SamplingConfig{WindowCycles: 3})}, nil},
		{"sampling without tracing", bytes.NewReader(good.Bytes()), []Option{WithSampling(SamplingConfig{WindowCycles: 1 << 10})}, nil},
		{"failing reader", iotest.ErrReader(io.ErrUnexpectedEOF), nil, io.ErrUnexpectedEOF},
		{"line MAC flipped", bytes.NewReader(sealed(m)), nil, ErrIntegrity},
		{"store is a file", bytes.NewReader(good.Bytes()), []Option{WithStore(file)}, nil},
	} {
		got, err := Load(c.r, c.opts...)
		if err == nil || got != nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: cluster %v, err %v; want none and %v", c.name, got != nil, err, c.want)
		}
	}
}

// TestRestoreSamples: Load and Open apply WithSampling as New does. With
// WithTracing the restored machines are sampled, window by window, into a
// series whose windows re-add to the totals; without it both refuse the
// option with New's error.
func TestRestoreSamples(t *testing.T) {
	c, _ := persistCluster(t)
	var stream bytes.Buffer
	if _, err := c.Save(&stream); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stored, err := Load(bytes.NewReader(stream.Bytes()), WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := stored.Close(); err != nil { // the final checkpoint Open resumes
		t.Fatal(err)
	}
	sampling := WithSampling(SamplingConfig{WindowCycles: 1 << 10})
	_, refused := New(sampling)
	if refused == nil {
		t.Fatal("New accepted WithSampling without WithTracing")
	}
	for _, restore := range []struct {
		name string
		open func(...Option) (*Cluster, error)
	}{
		{"Load", func(opts ...Option) (*Cluster, error) { return Load(bytes.NewReader(stream.Bytes()), opts...) }},
		{"Open", func(opts ...Option) (*Cluster, error) { return Open(dir, opts...) }},
	} {
		sink := NewTraceSink()
		r, err := restore.open(WithTracing(sink), sampling)
		if err != nil {
			t.Fatalf("%s: %v", restore.name, err)
		}
		bufs, err := validBuffers(r, "bob")
		if err != nil || len(bufs) != 1 {
			t.Fatalf("%s: bob's buffers: %d (%v)", restore.name, len(bufs), err)
		}
		for i := 0; i < 50; i++ {
			if err := bufs[0].Write(i*64, []byte("sampled line")); err != nil {
				t.Fatal(err)
			}
		}
		v, on := sink.SeriesSnapshot()
		if !on {
			t.Fatalf("%s: the series is off", restore.name)
		}
		if err := v.Check(); err != nil {
			t.Errorf("%s: %v", restore.name, err)
		}
		if p := v.Procs; len(p) != 1 || p[0].Proc != "bob" || len(p[0].Samples) < 2 {
			t.Errorf("%s: only bob wrote, in several windows, but the series holds %d procs", restore.name, len(p))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := restore.open(sampling); got != nil || err == nil || err.Error() != refused.Error() {
			t.Errorf("%s without WithTracing: cluster %v, err %v; want New's %v", restore.name, got != nil, err, refused)
		}
	}
}
