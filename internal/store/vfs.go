package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FS is the minimal filesystem the store needs. Two implementations: Dir
// (real files, used by mmt.WithStore / mmt.Open) and MemFS (in-memory with
// an operation journal, used by the crash simulator to replay every
// batch-boundary kill point).
type FS interface {
	// OpenFile opens name read-write, creating it empty if absent.
	OpenFile(name string) (File, error)
}

// File is the store's view of one file.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() (int64, error)
	Sync() error
	Close() error
}

// Dir is an FS over a real directory.
type Dir struct{ Path string }

// OpenFile implements FS.
func (d Dir) OpenFile(name string) (File, error) {
	if err := os.MkdirAll(d.Path, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(d.Path, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// opKind tags a journal entry.
type opKind uint8

const (
	opWrite opKind = iota
	opSync
)

// Op is one journaled filesystem operation.
type Op struct {
	Kind opKind
	File string
	Off  int64
	Data []byte // opWrite: bytes written
}

// MemFS is an in-memory FS that journals every write and sync.
// The crash simulator replays journal prefixes to reconstruct every state
// the disk could have been in at a kill point.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
	ops   []Op
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte)}
}

// NewMemFSFrom builds a MemFS whose files start with the given contents
// (the output of ReplayMode reconstruction).
func NewMemFSFrom(files map[string][]byte) *MemFS {
	fs := NewMemFS()
	for name, data := range files {
		fs.files[name] = append([]byte(nil), data...)
	}
	return fs
}

// OpenFile implements FS.
func (fs *MemFS) OpenFile(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		fs.files[name] = nil
	}
	return &memFile{fs: fs, name: name}, nil
}

// Files returns a deep copy of the current contents (a "clean shutdown"
// disk image).
func (fs *MemFS) Files() map[string][]byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[string][]byte, len(fs.files))
	for name, data := range fs.files {
		out[name] = append([]byte(nil), data...)
	}
	return out
}

// Ops reports the number of journaled operations. Kill points are "crash
// just before op k" for k in [0, Ops()], so there are Ops()+1 of them.
func (fs *MemFS) Ops() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.ops)
}

// SyncPoints lists the journal indices immediately after each opSync — the
// batch boundaries the crash simulator must cover at minimum.
func (fs *MemFS) SyncPoints() []int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []int
	for i, op := range fs.ops {
		if op.Kind == opSync {
			out = append(out, i+1)
		}
	}
	return out
}

// ReplayMode selects how unflushed state is treated when reconstructing
// the disk at a kill point.
type ReplayMode int

const (
	// ReplayInOrder applies every op before the kill point: the kindest
	// disk, where writes always hit media in issue order.
	ReplayInOrder ReplayMode = iota
	// ReplayTorn additionally applies only a prefix of the last write
	// before the kill point — a torn sector write.
	ReplayTorn
	// ReplayDropUnsynced drops, per file, every write after that file's
	// last sync before the kill point: the harshest disk, where nothing is
	// durable until fsync returns.
	ReplayDropUnsynced
)

// ReplayModes lists every mode, for exhaustive kill-point sweeps.
var ReplayModes = []ReplayMode{ReplayInOrder, ReplayTorn, ReplayDropUnsynced}

func (m ReplayMode) String() string {
	switch m {
	case ReplayInOrder:
		return "in-order"
	case ReplayTorn:
		return "torn"
	case ReplayDropUnsynced:
		return "drop-unsynced"
	default:
		return fmt.Sprintf("ReplayMode(%d)", int(m))
	}
}

// StateAt reconstructs the disk contents if the process had been killed
// just before journal op k (0 <= k <= Ops()), under the given mode.
func (fs *MemFS) StateAt(k int, mode ReplayMode) map[string][]byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if k < 0 || k > len(fs.ops) {
		panic(fmt.Sprintf("store: kill point %d out of range [0,%d]", k, len(fs.ops))) // test-harness bounds guard; the crash simulator passes literals from Ops()
	}
	ops := fs.ops[:k]

	// For drop-unsynced, find each file's last sync before k; writes to
	// that file after it never reached media.
	lastSync := map[string]int{}
	if mode == ReplayDropUnsynced {
		for i, op := range ops {
			if op.Kind == opSync {
				lastSync[op.File] = i
			}
		}
	}

	out := map[string][]byte{}
	for i, op := range ops {
		if op.Kind != opWrite {
			continue
		}
		if mode == ReplayDropUnsynced {
			if ls, ok := lastSync[op.File]; !ok || i > ls {
				continue // unsynced write: lost
			}
		}
		data := op.Data
		if mode == ReplayTorn && i == len(ops)-1 {
			data = data[:len(data)/2]
		}
		buf := out[op.File]
		if need := op.Off + int64(len(data)); int64(len(buf)) < need {
			grown := make([]byte, need)
			copy(grown, buf)
			buf = grown
		}
		copy(buf[op.Off:], data)
		out[op.File] = buf
	}
	// Files that were opened but never durably written still exist, empty.
	for name := range fs.files {
		if _, ok := out[name]; !ok {
			out[name] = nil
		}
	}
	return out
}

type memFile struct {
	fs   *MemFS
	name string
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	buf := f.fs.files[f.name]
	if off >= int64(len(buf)) {
		return 0, fmt.Errorf("store: read past EOF of %s", f.name)
	}
	n := copy(p, buf[off:])
	if n < len(p) {
		return n, fmt.Errorf("store: short read of %s", f.name)
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.ops = append(f.fs.ops, Op{Kind: opWrite, File: f.name, Off: off, Data: append([]byte(nil), p...)})
	buf := f.fs.files[f.name]
	if need := off + int64(len(p)); int64(len(buf)) < need {
		grown := make([]byte, need)
		copy(grown, buf)
		buf = grown
	}
	copy(buf[off:], p)
	f.fs.files[f.name] = buf
	return len(p), nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.fs.files[f.name])), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.ops = append(f.fs.ops, Op{Kind: opSync, File: f.name})
	return nil
}

func (f *memFile) Close() error { return nil }
