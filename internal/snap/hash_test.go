package snap

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// noise is n seeded bytes with no period (fill repeats every 256, which
// would make every leaf group of a plane the same).
func noise(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// bigModel is pinModel with alpha's live region grown to three whole
// leaf groups and a partial fourth, plus a second live region, so groups
// and regions can be told apart and reordered.
func bigModel() *Model {
	m := pinModel()
	lines := 3*groupLines + 5
	macs := make([]uint64, lines)
	for i := range macs {
		macs[i] = 0x0101010101010101 * uint64(i+1)
	}
	r := &m.Machines[0].Regions[0]
	r.Data, r.LineMACs = noise(lines*64, 1), macs
	m.Machines[0].Regions = append(m.Machines[0].Regions, Region{
		Index: 1, RootCounter: 7, Tree: noise(200, 2), Data: noise(2*groupBytes, 3), LineMACs: slices.Clone(macs[:2*groupLines]),
	})
	return m
}

// TestHashCoversEveryByte: Hash commits to every byte of every field and
// every plane, to where each plane ends, and to the order of groups,
// regions and machines.
func TestHashCoversEveryByte(t *testing.T) {
	pin := Hash(pinModel())
	if got, want := hex.EncodeToString(pin[:]), "369413c7b1407b68570622b5cda6d3d5f3abf28e8b8457ddcf0789b8c748b74b"; got != want {
		t.Errorf("Hash(pinModel()) = %s, pinned %s: the state-hash definition drifted", got, want)
	}
	if again := Hash(pinModel()); again != pin {
		t.Fatal("Hash is not deterministic")
	}

	// Every byte of the canonical encoding — each scalar field, length
	// prefix, tree byte, ciphertext byte and line MAC: whatever one-byte
	// change the decoder still accepts is a different model and must be a
	// different hash.
	blob := Encode(pinModel())
	accepted := 0
	for off := range blob {
		mut := bytes.Clone(blob)
		mut[off] ^= 0x01
		m, err := Decode(mut)
		if err != nil {
			continue
		}
		accepted++
		if Hash(m) == pin {
			t.Fatalf("flipping encoded byte %d of %d leaves the hash unchanged", off, len(blob))
		}
	}
	if accepted < len(blob)*9/10 {
		t.Fatalf("only %d of %d one-bit flips decode; the sweep no longer covers the layout", accepted, len(blob))
	}

	base := Hash(bigModel())
	swap := func(b []byte, i, j, n int) {
		tmp := bytes.Clone(b[i : i+n])
		copy(b[i:i+n], b[j:j+n])
		copy(b[j:j+n], tmp)
	}
	region := func(m *Model) *Region { return &m.Machines[0].Regions[0] }
	mutations := map[string]func(m *Model){
		"swap two groups": func(m *Model) {
			r := region(m)
			swap(r.Data, 0, groupBytes, groupBytes)
			for i := range groupLines {
				r.LineMACs[i], r.LineMACs[groupLines+i] = r.LineMACs[groupLines+i], r.LineMACs[i]
			}
		},
		"swap two lines of a group": func(m *Model) {
			r := region(m)
			swap(r.Data, 64, 128, 64)
			r.LineMACs[1], r.LineMACs[2] = r.LineMACs[2], r.LineMACs[1]
		},
		"swap the ciphertext of two groups, MACs in place": func(m *Model) { swap(region(m).Data, 0, 2*groupBytes, groupBytes) },
		"last data byte of the partial group":              func(m *Model) { r := region(m); r.Data[len(r.Data)-1] ^= 0x80 },
		"last line MAC":                                    func(m *Model) { r := region(m); r.LineMACs[len(r.LineMACs)-1] ^= 1 << 63 },
		"first tree byte":                                  func(m *Model) { region(m).Tree[0] ^= 1 },
		"last tree byte":                                   func(m *Model) { r := region(m); r.Tree[len(r.Tree)-1] ^= 1 },
		"truncate Data":                                    func(m *Model) { r := region(m); r.Data = r.Data[:len(r.Data)-1] },
		"extend Data":                                      func(m *Model) { r := region(m); r.Data = append(r.Data, 0) },
		"extend Data by a group":                           func(m *Model) { r := region(m); r.Data = append(r.Data, make([]byte, groupBytes)...) },
		"truncate LineMACs":                                func(m *Model) { r := region(m); r.LineMACs = r.LineMACs[:len(r.LineMACs)-1] },
		"extend LineMACs":                                  func(m *Model) { r := region(m); r.LineMACs = append(r.LineMACs, 0) },
		"truncate Tree":                                    func(m *Model) { r := region(m); r.Tree = r.Tree[:len(r.Tree)-1] },
		"extend Tree":                                      func(m *Model) { r := region(m); r.Tree = append(r.Tree, 0) },
		"empty planes":                                     func(m *Model) { r := region(m); r.Tree, r.Data, r.LineMACs = nil, nil, nil },
		"reorder two regions": func(m *Model) {
			rs := m.Machines[0].Regions
			rs[0], rs[1] = rs[1], rs[0]
		},
		"swap two regions' planes, indices in place": func(m *Model) {
			rs := m.Machines[0].Regions
			rs[0], rs[1] = rs[1], rs[0]
			rs[0].Index, rs[1].Index = rs[1].Index, rs[0].Index
			rs[0].RootCounter, rs[1].RootCounter = rs[1].RootCounter, rs[0].RootCounter
		},
		"move a region to the other machine": func(m *Model) {
			m.Machines[1].Regions = m.Machines[0].Regions[1:]
			m.Machines[0].Regions = m.Machines[0].Regions[:1]
		},
		"reorder two machines": func(m *Model) { m.Machines[0], m.Machines[1] = m.Machines[1], m.Machines[0] },
		"root counter":         func(m *Model) { region(m).RootCounter++ },
	}
	seen := map[[32]byte]string{base: "the unmodified model"}
	for name, mutate := range mutations {
		m := bigModel()
		mutate(m)
		got := Hash(m)
		if other, dup := seen[got]; dup {
			t.Errorf("%s: hashes like %s", name, other)
		}
		seen[got] = name
	}

	// Moving the Data/LineMACs boundary: the last 8 ciphertext bytes become
	// the first line MAC. The single leaf hashes the same 288 bytes either
	// way, so only the plane lengths in the region digest tell the two apart.
	m := pinModel()
	r := region(m)
	cut := len(r.Data) - 8
	r.LineMACs = append([]uint64{binary.LittleEndian.Uint64(r.Data[cut:])}, r.LineMACs...)
	r.Data = r.Data[:cut]
	if Hash(m) == pin {
		t.Error("moving the Data/LineMACs boundary leaves the hash unchanged")
	}
}

// TestHasherMatchesHash: a Hasher told exactly which lines and trees
// changed returns Hash of the current model — across edits, growth,
// regions coming and going, and at any processor count — and a Hasher
// told less does not (the test's own guard that the cache is in play).
func TestHasherMatchesHash(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(15))
		m := bigModel()
		var h Hasher
		dirtyLines := map[regionKey][]int{}
		dirtyTrees := map[regionKey]bool{}
		report := func(machine string, region int, line func(int)) bool {
			k := regionKey{machine, region}
			for _, ln := range dirtyLines[k] {
				line(ln)
			}
			return dirtyTrees[k]
		}
		check := func(what string) {
			t.Helper()
			if got, want := h.Sum(m, report), Hash(m); got != want {
				t.Fatalf("GOMAXPROCS=%d, %s: cached %x, uncached %x", procs, what, got, want)
			}
			clear(dirtyLines)
			clear(dirtyTrees)
		}
		check("first sum")
		check("nothing changed")
		for round := 0; round < 20; round++ {
			for i := range m.Machines[0].Regions {
				r := &m.Machines[0].Regions[i]
				k := regionKey{"alpha", r.Index}
				var lines []int
				for n := rng.Intn(4); n > 0; n-- {
					ln := rng.Intn(len(r.LineMACs))
					r.Data[ln*64+rng.Intn(64)] ^= 0x10
					r.LineMACs[ln]++
					lines = append(lines, ln)
				}
				slices.Sort(lines)
				dirtyLines[k] = lines
				if rng.Intn(2) == 0 {
					r.Tree[rng.Intn(len(r.Tree))]++
					dirtyTrees[k] = true
				}
			}
			m.Machines[0].Clock += 1e-6
			check("scattered edits")
		}

		// A plane that changes length is re-hashed whole without being told.
		r := &m.Machines[0].Regions[0]
		r.Data, r.LineMACs = append(r.Data, fill(64, 0x55)...), append(r.LineMACs, 99)
		check("grown region")
		// A region that leaves the model and comes back under the same key
		// with the same lengths but other bytes: its digests were dropped.
		gone := m.Machines[0].Regions[1]
		m.Machines[0].Regions = m.Machines[0].Regions[:1]
		check("region gone")
		gone.Data = noise(len(gone.Data), 4)
		m.Machines[0].Regions = append(m.Machines[0].Regions, gone)
		check("region back")

		// An unreported change must go unseen, or this test proves nothing.
		m.Machines[0].Regions[1].Data[0] ^= 1
		if h.Sum(m, report) == Hash(m) {
			t.Fatalf("GOMAXPROCS=%d: the Hasher re-hashed a group nothing reported dirty", procs)
		}
	}
}

// FuzzSnapDecode: Load and Open parse a snapshot before they can
// authenticate it, so the decoder faces raw outside input. It must never
// panic, must fail only with ErrBadSnapshot, and whatever it accepts must
// re-encode to exactly the input — the property that makes a hash of the
// model a hash of the bytes.
func FuzzSnapDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) || m != nil {
				t.Fatalf("model %v, err %v; want nil and ErrBadSnapshot", m != nil, err)
			}
			return
		}
		if !bytes.Equal(Encode(m), b) {
			t.Fatal("accepted input re-encodes differently")
		}
		Hash(m) // any accepted model must hash without panicking
	})
}
