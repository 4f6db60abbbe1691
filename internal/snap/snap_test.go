package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"mmt/internal/attest"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/forest"
	"mmt/internal/monitor"
	"mmt/internal/sim"
	"mmt/internal/store"
)

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)*7
	}
	return b
}

// pinModel is a fixed, key-free model touching every field of the
// layout: two machines, one live region, one link.
func pinModel() *Model {
	var meas attest.Measurement
	copy(meas[:], fill(32, 0x11))
	var keyA, keyB crypt.Key
	copy(keyA[:], fill(16, 0x21))
	copy(keyB[:], fill(16, 0x22))
	prof := &sim.Profile{
		Name: "pin", FreqHz: 2.5e9,
		EncryptSetup: 100, EncryptPerByte: 1.25, DecryptSetup: 101, DecryptPerByte: 1.5,
		Memcpy:      sim.NewCurve(sim.CurvePoint{Size: 64, PerByte: 0.32}, sim.CurvePoint{Size: 1 << 20, PerByte: 1.02}),
		MemcpySetup: 7, RemoteWriteSetup: 900, RemoteWritePerByte: 0.75,
		DelegationFixed: 1234, NetLatency: 1e-6,
		DRAMAccess: 90, AESLatency: 40, MACLatency: 8,
		MMTCacheBytes: 32 << 10, RootTableSoC: 8 << 10, SecureMemory: 2 << 30,
	}
	mon := func(node uint16, subject string, live bool) *monitor.Snapshot {
		s := &monitor.Snapshot{
			NodeID: forest.NodeID(node),
			Report: &attest.Report{
				NodeID: forest.NodeID(node), Subject: subject, Measurement: meas,
				MachinePublicKey: fill(91, byte(node)), Signature: fill(64, byte(node)+1),
			},
			NextEnclave: 3, NextCap: 5, AllocNext: 0x1000 + uint64(node),
			Pool: []int{3, 2},
			Enclaves: []monitor.EnclaveRec{
				{ID: 1, Name: "app", Measurement: meas, Caps: []monitor.CapID{1, 2}},
				{ID: 2, Name: "idle"},
			},
			PMOs: []monitor.PMORec{{Cap: 1, Region: 0, Owner: 1}, {Cap: 2, Region: 1, Owner: 1}},
			Conns: []monitor.ConnRec{{
				ID: "a/1<->b/1#0", Local: 1, PeerMonitor: "peer-of-" + subject, PeerEnclave: 1,
				Key: keyB, LastCounter: 9, LastGUAddr: 0x2000, RecvCap: 2,
				Received: []monitor.CapID{1}, Acked: 4,
			}},
		}
		if live {
			s.MMTs = []monitor.MMTRec{
				{Region: 0, State: core.StateValid, Key: keyA, GUAddr: 0x1000, Mode: core.OwnershipTransfer, ReadOnly: false},
				{Region: 1, State: core.StateWaiting, Key: keyB, GUAddr: 0, Mode: core.OwnershipCopy, ReadOnly: true},
			}
		}
		return s
	}
	machine := func(node uint16, name string, live bool) Machine {
		mm := Machine{
			Name: name, KeyDER: fill(121, byte(node)+2),
			Cert:  attest.Certificate{Subject: name, PublicKey: fill(91, byte(node)+3), Signature: fill(64, byte(node)+4)},
			Clock: sim.Time(0.001) * sim.Time(node),
			Stats: engine.Stats{Reads: 10, Writes: 11, NodeHits: 12, NodeMisses: 13, RootMounts: 14,
				DataAccesses: 15, ReencryptedLines: 16, Cycles: 17.5},
			Mon: mon(node, name, live),
		}
		if live {
			mm.Regions = []Region{{
				Index: 0, RootCounter: 42, Tree: fill(200, 0x31), Data: fill(256, 0x32),
				LineMACs: []uint64{1, 2, 3, 0xFFFFFFFFFFFFFFFF},
			}}
		}
		return mm
	}
	return &Model{
		TreeLevels: 3, Regions: 4, NetLatency: 2.5e-7, Profile: prof,
		MfrKey:    fill(121, 0x41),
		Authority: &attest.AuthorityState{KeyDER: fill(121, 0x42), Policy: []attest.Measurement{meas}, NextID: 3},
		Machines:  []Machine{machine(1, "alpha", true), machine(2, "beta", false)},
		Links:     []Link{{ID: "link-0", MachineA: "alpha", EnclaveA: 1, MachineB: "beta", EnclaveB: 1}},
	}
}

func pinPatches() []Patch {
	m := pinModel()
	return []Patch{
		{Type: RecMachine, Machine: "alpha", Clock: m.Machines[0].Clock, Stats: m.Machines[0].Stats},
		{Type: RecRoot, Machine: "alpha", Region: 0, Counter: 43},
		{Type: RecNode, Machine: "alpha", Region: 0, Level: 2, Index: 5, Bytes: fill(40, 0x51)},
		{Type: RecLine, Machine: "alpha", Region: 0, Index: 3, Bytes: fill(64, 0x52), MAC: 0xDEADBEEFCAFEF00D},
	}
}

// TestPinnedLayouts holds mmt-snap/v1 and the four delta-record layouts
// to the bytes the hand-written encoder produced before the codec moved
// here: the constants are SHA-256 digests computed at that commit.
func TestPinnedLayouts(t *testing.T) {
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	blob := Encode(pinModel())
	if got, want := sum(blob), "c58e8776e3f7bcf90d88bfc9e82a14c556d2a360bcd5374c18d4c6c07f764624"; len(blob) != 2872 || got != want {
		t.Errorf("model: %d bytes hashing to %s, pinned 2872 bytes %s", len(blob), got, want)
	}
	pins := []struct {
		size int
		hash string
	}{
		{81, "58686017438dd13bdc801c56a3a6da04f1787dea36314381ccc409c1775bd6a5"},
		{21, "0778f62fd4fd6270da8ccdfc2e10f339254721ffee3d4fb09f0e48137aeca8cf"},
		{65, "9d0425d3da00d91ef5ddf72a04b3fdc797b3f947de96401531d53700277279a5"},
		{93, "a17a87ec9236afcd78a981d74e625ecd9d427600f54e46c98bc4078cc89bba1a"},
	}
	for i, p := range pinPatches() {
		rec := p.Record()
		if rec.Type != p.Type || len(rec.Payload) != pins[i].size || sum(rec.Payload) != pins[i].hash {
			t.Errorf("record type %d: %d bytes hashing to %s, pinned %d bytes %s",
				p.Type, len(rec.Payload), sum(rec.Payload), pins[i].size, pins[i].hash)
		}
	}
}

func TestDecodeIsCanonical(t *testing.T) {
	blob := Encode(pinModel())
	m, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(m), blob) {
		t.Fatal("decode → encode is not the identity")
	}
}

// TestDecodeTable: every truncation is ErrBadSnapshot; every byte flip is
// either ErrBadSnapshot or a model that re-encodes to exactly the flipped
// bytes (the codec is canonical); nothing panics.
func TestDecodeTable(t *testing.T) {
	blob := Encode(pinModel())
	for n := 0; n < len(blob); n++ {
		if m, err := Decode(blob[:n]); !errors.Is(err, ErrBadSnapshot) || m != nil {
			t.Fatalf("truncated to %d bytes: model %v, err %v", n, m != nil, err)
		}
	}
	for off := 0; off < len(blob); off++ {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), blob...)
			mut[off] ^= mask
			m, err := Decode(mut)
			switch {
			case err != nil && (!errors.Is(err, ErrBadSnapshot) || m != nil):
				t.Fatalf("flip %#x at %d: model %v, err %v", mask, off, m != nil, err)
			case err == nil && !bytes.Equal(Encode(m), mut):
				t.Fatalf("flip %#x at %d: accepted but re-encodes differently", mask, off)
			}
		}
	}
}

// TestDecodeRejectsCraftedGeometry: values that used to reach
// tree.ForLevels, Controller.region and sim.NewCurve and panic there.
func TestDecodeRejectsCraftedGeometry(t *testing.T) {
	cases := map[string]func(m *Model){
		"tree levels 0":  func(m *Model) { m.TreeLevels = 0 },
		"tree levels 1":  func(m *Model) { m.TreeLevels = 1 },
		"tree levels 5":  func(m *Model) { m.TreeLevels = 5 },
		"tree levels 4G": func(m *Model) { m.TreeLevels = 0xFFFFFFFF },
		"no regions":     func(m *Model) { m.Regions = 0 },
		"live region out of range": func(m *Model) {
			m.Machines[0].Regions[0].Index = 9999
			m.Machines[0].Mon.MMTs[0].Region = 9999
		},
		"live region == regions": func(m *Model) { m.Machines[0].Regions[0].Index = m.Regions },
		"pool region":            func(m *Model) { m.Machines[1].Mon.Pool[0] = 4 },
		"PMO region":             func(m *Model) { m.Machines[1].Mon.PMOs[1].Region = 1 << 20 },
		"MMT region":             func(m *Model) { m.Machines[0].Mon.MMTs[1].Region = 4 },
	}
	for name, craft := range cases {
		m := pinModel()
		craft(m)
		blob := Encode(m)
		if got, err := Decode(blob); !errors.Is(err, ErrBadSnapshot) || got != nil {
			t.Errorf("%s: model %v, err %v; want ErrBadSnapshot", name, got != nil, err)
		}
	}

	// sim.NewCurve refuses to build an unsorted curve, so forge one in the
	// bytes: the second of the two points no larger than the first.
	blob := Encode(pinModel())
	at := bytes.Index(blob, []byte{2, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0})
	if at < 0 {
		t.Fatal("curve not found in the pinned encoding")
	}
	copy(blob[at+4+16:], []byte{64, 0, 0, 0, 0, 0, 0, 0})
	if got, err := Decode(blob); !errors.Is(err, ErrBadSnapshot) || got != nil {
		t.Errorf("unsorted memcpy curve: model %v, err %v; want ErrBadSnapshot", got != nil, err)
	}
}

func TestReplay(t *testing.T) {
	base := store.Record{Type: RecBase, Payload: Encode(pinModel())}
	patches := pinPatches()
	patches[2].Level, patches[2].Index, patches[2].Bytes = 1, 0, fill(80, 0x51) // a real level-1 node: 8+2*32+8 bytes behind the 48-byte top node
	recs := []store.Record{base}
	for i := range patches {
		recs = append(recs, patches[i].Record())
	}
	m, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	rm := &m.Machines[0].Regions[0]
	if rm.RootCounter != 43 || rm.LineMACs[3] != 0xDEADBEEFCAFEF00D ||
		!bytes.Equal(rm.Data[3*64:4*64], fill(64, 0x52)) || !bytes.Equal(rm.Tree[48:128], fill(80, 0x51)) {
		t.Fatal("patches did not land where they point")
	}
	again, err := Replay(append(recs, recs[1:]...))
	if err != nil || !bytes.Equal(Encode(again), Encode(m)) {
		t.Fatalf("replaying the patches twice changed the model (err %v)", err)
	}

	bad := map[string][]store.Record{
		"empty log":         nil,
		"delta before base": {recs[1], base},
		"unknown type":      {base, {Type: 9}},
		"base type 0":       {{Type: 0}},
		"unknown machine":   {base, (&Patch{Type: RecRoot, Machine: "gamma"}).Record()},
		"dead region":       {base, (&Patch{Type: RecRoot, Machine: "alpha", Region: 1}).Record()},
		"region range":      {base, (&Patch{Type: RecRoot, Machine: "alpha", Region: 4}).Record()},
		"node level":        {base, (&Patch{Type: RecNode, Machine: "alpha", Level: 3, Bytes: fill(48, 0)}).Record()},
		"node index":        {base, (&Patch{Type: RecNode, Machine: "alpha", Index: 1, Bytes: fill(48, 0)}).Record()},
		"node size":         {base, (&Patch{Type: RecNode, Machine: "alpha", Bytes: fill(47, 0)}).Record()},
		"node past tree":    {base, (&Patch{Type: RecNode, Machine: "alpha", Level: 1, Index: 1, Bytes: fill(80, 0)}).Record()},
		"line index":        {base, (&Patch{Type: RecLine, Machine: "alpha", Index: 4, Bytes: fill(64, 0)}).Record()},
		"line size":         {base, (&Patch{Type: RecLine, Machine: "alpha", Bytes: fill(63, 0)}).Record()},
		"trailing bytes":    {base, {Type: RecRoot, Payload: append(recs[2].Payload, 0)}},
		"truncated patch":   {base, {Type: RecLine, Payload: recs[4].Payload[:50]}},
	}
	for name, log := range bad {
		if got, err := Replay(log); !errors.Is(err, ErrBadSnapshot) || got != nil {
			t.Errorf("%s: model %v, err %v; want ErrBadSnapshot", name, got != nil, err)
		}
	}
}
