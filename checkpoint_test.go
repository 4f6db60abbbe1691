package mmt

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mmt/internal/snap"
	"mmt/internal/store"
)

// flakyFS is a MemFS whose files can be told to fail one Sync: syncsLeft
// counts the Sync calls that still succeed before the failing one (-1:
// none fails). A checkpoint commit syncs twice — the data file, then the
// commit slot — so 0 and 1 pick which half of the protocol breaks.
type flakyFS struct {
	*store.MemFS
	syncsLeft int
}

var errInjectedSync = errors.New("injected sync failure")

func (fs *flakyFS) OpenFile(name string) (store.File, error) {
	f, err := fs.MemFS.OpenFile(name)
	return flakyFile{f, fs}, err
}

type flakyFile struct {
	store.File
	fs *flakyFS
}

func (f flakyFile) Sync() error {
	switch {
	case f.fs.syncsLeft == 0:
		f.fs.syncsLeft = -1
		return errInjectedSync
	case f.fs.syncsLeft > 0:
		f.fs.syncsLeft--
	}
	return f.File.Sync()
}

// TestCachedHashMatchesUncached drives a store-backed cluster through a
// seeded script of everything that mutates region planes or moves regions
// between cache keys — line, multi-line and unaligned writes, counter
// overflow with sibling re-encryption (the 2-bit-locals run overflows every
// fourth write to a line), NewBuffer, Free, Delegate + Receive — with Save
// and Manifest calls (which refresh cached digests but clear no dirty
// bit) and failed commits in between. Every hash the cluster hands out
// must equal the definition computed with nothing cached, and the
// journal at every commit must replay to the committed hash and, where
// restore knows the geometry, reopen. A leaf reused while one of its
// lines is dirty, or a dirty bit cleared before the hash that refreshes
// its leaf, fails here.
func TestCachedHashMatchesUncached(t *testing.T) {
	t.Run("default geometry", func(t *testing.T) { cachedHashScript(t, 0) })
	// Restore rebuilds the paper's geometry (tree.ForLevels), so the
	// white-box 2-bit run checks the replayed model instead of reopening.
	t.Run("2-bit local counters", func(t *testing.T) { cachedHashScript(t, 2) })
}

func cachedHashScript(t *testing.T, localBits uint) {
	c, err := New(WithTreeLevels(2), WithRegions(6))
	if err != nil {
		t.Fatal(err)
	}
	c.geometry.LocalBits = localBits // white box: no machine has been built yet
	fs := &flakyFS{MemFS: store.NewMemFS(), syncsLeft: -1}
	st, err := store.Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	c.ckpt = st // white box: the failing in-memory store instead of WithStore's Dir
	defer st.Close()

	a, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	ends := [2]*Enclave{a.Spawn("producer", nil), b.Spawn("consumer", nil)}
	link, err := c.Connect(ends[0], ends[1])
	if err != nil {
		t.Fatal(err)
	}

	uncached := func() [32]byte {
		t.Helper()
		m, err := c.buildModel()
		if err != nil {
			t.Fatal(err)
		}
		return snap.Hash(m)
	}
	checkManifest := func(what string, mf *Manifest, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want := uncached(); mf.RootHash != hex.EncodeToString(want[:]) {
			t.Fatalf("%s: cached hash %s, definition says %x", what, mf.RootHash, want)
		}
	}
	var deltas, failed, moved int // what the script got to exercise
	checkpoint := func(step int) {
		t.Helper()
		want := uncached()
		if !c.needBase {
			deltas++
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatalf("step %d: checkpoint: %v", step, err)
		}
		cr, err := st.Committed()
		if err != nil {
			t.Fatal(err)
		}
		if cr.RootHash != want {
			t.Fatalf("step %d: epoch %d commits %x, definition says %x", step, cr.Epoch, cr.RootHash, want)
		}
		rst, err := store.Open(store.NewMemFSFrom(fs.Files()))
		if err != nil {
			t.Fatal(err)
		}
		defer rst.Close()
		recs, err := rst.CommittedRecords()
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := snap.Replay(recs)
		if err != nil {
			t.Fatalf("step %d: replaying the journal: %v", step, err)
		}
		if got := snap.Hash(replayed); got != want {
			t.Fatalf("step %d: journal replays to %x, commit pins %x", step, got, want)
		}
		if localBits == 0 {
			rc, err := openFromStore(rst, defaultSettings())
			if err != nil {
				t.Fatalf("step %d: reopening the journal: %v", step, err)
			}
			rc.closeDebug()
		}
	}

	rng := rand.New(rand.NewSource(0x15))
	lineSize := 64
	size := c.Geometry().DataSize()
	type held struct {
		buf *Buffer
		end int // index into ends of the owning enclave
	}
	var bufs []held
	payload := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	write := func(off, n int) {
		t.Helper()
		if len(bufs) == 0 {
			return
		}
		if err := bufs[rng.Intn(len(bufs))].buf.Write(off, payload(n)); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 120; step++ {
		switch op := rng.Intn(12); {
		case op < 3: // a handful of single-line writes, some to the same line
			hot := rng.Intn(size / lineSize)
			for i := 0; i < 6; i++ {
				ln := hot
				if i%2 == 1 {
					ln = rng.Intn(size / lineSize)
				}
				write(ln*lineSize, lineSize)
			}
		case op == 3: // aligned multi-line write, up to three leaf runs
			n := (1 + rng.Intn(150)) * lineSize
			write(rng.Intn((size-n)/lineSize+1)*lineSize, n)
		case op == 4: // unaligned write
			n := 1 + rng.Intn(700)
			write(rng.Intn(size-n+1), n)
		case op == 5 && len(bufs) < 3:
			end := rng.Intn(2)
			buf, err := link.NewBuffer(ends[end])
			if err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs, held{buf, end})
			write(0, size) // whole-region write: every group dirty
		case op == 6 && len(bufs) > 1:
			i := rng.Intn(len(bufs))
			if err := bufs[i].buf.Free(); err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs[:i], bufs[i+1:]...)
		case op == 7:
			// The link's replay window wants rising buffer addresses, so hand
			// over alice's oldest buffer and never send one back. A buffer
			// written less than one already sent is refused before anything
			// changes (ErrStaleCounter) and stays where it is.
			i := slices.IndexFunc(bufs, func(h held) bool { return h.end == 0 })
			if i < 0 {
				continue
			}
			if err := link.Delegate(bufs[i].buf, OwnershipTransfer); errors.Is(err, ErrStaleCounter) {
				continue
			} else if err != nil {
				t.Fatal(err)
			}
			got, err := link.Receive(ends[1])
			if err != nil {
				t.Fatal(err)
			}
			bufs[i] = held{got, 1}
			moved++
		case op == 8:
			var out bytes.Buffer
			mf, err := c.Save(&out)
			checkManifest("Save", mf, err)
		case op == 9:
			mf, err := c.Manifest()
			checkManifest("Manifest", mf, err)
		case op == 10: // a commit that fails in either half, then more writes, then the retry
			fs.syncsLeft = rng.Intn(2)
			if err := c.Checkpoint(); !errors.Is(err, errInjectedSync) {
				t.Fatalf("step %d: checkpoint with a failing sync: %v", step, err)
			}
			failed++
			if rng.Intn(2) == 0 {
				write(rng.Intn(size/lineSize)*lineSize, lineSize)
			}
			checkpoint(step)
		default:
			checkpoint(step)
		}
	}
	checkpoint(-1)

	var reencrypted uint64
	for _, m := range c.Machines() {
		reencrypted += m.mon.Node().Controller().Stats().ReencryptedLines
	}
	t.Logf("%d delta commits, %d failed commits, %d delegations, %d lines re-encrypted on overflow", deltas, failed, moved, reencrypted)
	if deltas < 10 || failed < 3 || moved < 1 || (localBits == 2 && reencrypted == 0) {
		t.Fatal("the script no longer reaches delta commits, failed commits, delegation and (with 2-bit locals) overflow")
	}
}

// TestDeltaCheckpointBudget: a delta checkpoint's allocation tracks what
// was written since the last one — it encodes no snapshot blob and keeps
// no second copy of any plane. 256 scattered line writes to a 2 MB buffer
// stream about 64 KB of records; the budget leaves room for the
// serialized tree, the model and the store's batch, and is a tenth of
// what re-encoding the cluster took.
func TestDeltaCheckpointBudget(t *testing.T) {
	c, err := New(WithStore(t.TempDir()))
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
	sender := a.Spawn("producer", nil)
	link, err := c.Connect(sender, b.Spawn("consumer", nil))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0x15))
	fill := make([]byte, buf.Size())
	rng.Read(fill)
	if err := buf.Write(0, fill); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil { // the base
		t.Fatal(err)
	}
	const budget = 512 << 10
	for round := 0; round < 3; round++ {
		for i := 0; i < 256; i++ {
			if err := buf.Write(rng.Intn(buf.Size()/64)*64, fill[:64]); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("delta checkpoint %d: %d KB, %d allocations", round, got>>10, after.Mallocs-before.Mallocs)
		if got > budget {
			t.Errorf("delta checkpoint %d allocated %d bytes, budget %d", round, got, budget)
		}
	}
}
