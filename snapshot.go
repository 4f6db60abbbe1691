package mmt

// This file is the persistence surface: Save/Load of a quiescent cluster
// over any io.Writer/io.Reader, and the mmt-store/v1 checkpoint path
// (WithStore + Checkpoint + Open) that streams dirty deltas between full
// base snapshots under the two-file crash-consistency protocol. The
// model and its mmt-snap/v1 codec live in internal/snap; this file
// captures a cluster into a model and rebuilds one from it.
//
// The integrity design: the snapshot hash is snap.Hash, a two-level
// SHA-256 tree over the model that commits to every field and every
// plane byte. Save appends it as a trailer; the store pins it in each
// commit record. Every reload rebuilds the model (base + deltas),
// restores the cluster through the normal cryptographic verification
// paths (certificates and reports re-verified, every tree node and line
// MAC re-checked by Controller.Install), then re-captures the restored
// cluster and requires its hash to match — a reload is byte-for-byte the
// state that was saved, or it is an error.
//
// A running cluster keeps the tree's leaf and region digests between
// calls (Cluster.hasher) and re-hashes only the 8-line groups and trees
// the engine's dirty bits name, so a checkpoint costs what changed. That
// rests on the engine's rule that every plane mutation marks dirty
// (engine.regionState.dirtyLines) and on the bits clearing in one place
// only: Checkpoint, after the commit is durable and after the hash that
// refreshed the digests. Save, Manifest and failed commits refresh
// digests and clear nothing.

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"mmt/internal/attest"
	"mmt/internal/core"
	"mmt/internal/cursor"
	"mmt/internal/engine"
	"mmt/internal/mem"
	"mmt/internal/monitor"
	"mmt/internal/netsim"
	"mmt/internal/snap"
	"mmt/internal/store"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// Persistence errors.
var (
	// ErrNotQuiescent: delegation traffic is in flight; pump or complete
	// it before saving (a consistent snapshot needs every MMT settled).
	ErrNotQuiescent = monitor.ErrNotQuiescent
	// ErrNoStore: Checkpoint on a cluster built without WithStore.
	ErrNoStore = errors.New("mmt: no checkpoint store attached (build the cluster with WithStore)")
	// ErrNoSnapshot: Open on a store directory with no committed state.
	ErrNoSnapshot = errors.New("mmt: store holds no committed snapshot")
	// ErrBadSnapshot: the snapshot bytes are malformed or fail their hash.
	ErrBadSnapshot = snap.ErrBadSnapshot
)

// buildModel captures the cluster into a model. It requires quiescence:
// nothing in flight on the interconnect and every monitor at a settled
// delegation state.
func (c *Cluster) buildModel() (*snap.Model, error) {
	if n := c.net.PendingTotal(); n != 0 {
		return nil, fmt.Errorf("%w (%d messages on the interconnect)", ErrNotQuiescent, n)
	}
	mfrKey, err := c.mfr.MarshalKey()
	if err != nil {
		return nil, err
	}
	auth, err := c.authority.MarshalState()
	if err != nil {
		return nil, err
	}
	m := &snap.Model{
		TreeLevels: c.set.treeLevels,
		Regions:    c.set.regions,
		NetLatency: c.set.netLatency,
		Profile:    c.set.profile,
		MfrKey:     mfrKey,
		Authority:  auth,
	}
	for _, name := range c.machineOrder {
		mach := c.machines[name]
		keyDER, err := mach.ident.MarshalKey()
		if err != nil {
			return nil, err
		}
		mon, err := mach.mon.Snapshot()
		if err != nil {
			return nil, err
		}
		ctl := mach.mon.Node().Controller()
		mm := snap.Machine{
			Name:   name,
			KeyDER: keyDER,
			Cert:   mach.ident.Cert,
			Clock:  mach.Clock().Now(),
			Stats:  ctl.Stats(),
			Mon:    mon,
		}
		for r := 0; r < c.set.regions; r++ {
			if ctl.Mode(r) == engine.ModeDisabled {
				continue
			}
			treeBytes, data, lineMACs, rootCounter, _, err := ctl.Export(r)
			if err != nil {
				return nil, err
			}
			mm.Regions = append(mm.Regions, snap.Region{
				Index: r, RootCounter: rootCounter,
				Tree: treeBytes, Data: data, LineMACs: lineMACs,
			})
		}
		m.Machines = append(m.Machines, mm)
	}
	for _, id := range c.linkOrder {
		l := c.links[id]
		m.Links = append(m.Links, snap.Link{
			ID:       l.id,
			MachineA: l.a.machine.name, EnclaveA: l.a.id,
			MachineB: l.b.machine.name, EnclaveB: l.b.id,
		})
	}
	return m, nil
}

// stateHash is snap.Hash(m) for a model buildModel has just captured,
// re-hashing only what the controllers' dirty bits name.
func (c *Cluster) stateHash(m *snap.Model) [32]byte {
	return c.hasher.Sum(m, func(machine string, region int, line func(int)) bool {
		ctl := c.machines[machine].mon.Node().Controller()
		ctl.DirtyLines(region, line)
		return ctl.Tree(region).DirtyCount() > 0
	})
}

// ---------------------------------------------------------------------------
// Restore: model -> running cluster, through the verification paths.

// restoreCluster rebuilds a cluster from a model, then re-captures the
// result and requires its hash to equal wantHash — the verified-reload
// contract. Structural options in s were already rejected by the caller;
// trace/debug settings apply to the restored cluster.
func restoreCluster(m *snap.Model, s settings, wantHash [32]byte) (*Cluster, error) {
	s.profile = m.Profile
	s.treeLevels = m.TreeLevels
	s.regions = m.Regions
	s.netLatency = m.NetLatency
	mfr, err := attest.RestoreManufacturer(m.MfrKey)
	if err != nil {
		return nil, err
	}
	authority, err := attest.RestoreAuthority(mfr.PublicKey(), m.Authority)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		set:         s,
		geometry:    tree.ForLevels(s.treeLevels), // snap.Decode admits only 2-4 levels
		mfr:         mfr,
		authority:   authority,
		measurement: attest.MeasureSoftware([]byte("mmt-monitor-v1")),
		net:         netsim.NewNetwork(s.netLatency),
		machines:    make(map[string]*Machine),
		links:       make(map[string]*Link),
		needBase:    true,
	}
	if s.debugAddr != "" {
		dbg, err := startDebugServer(s.debugAddr, s.trace)
		if err != nil {
			return nil, err
		}
		c.debug = dbg
	}
	fail := func(err error) (*Cluster, error) {
		c.closeDebug()
		return nil, err
	}
	for i := range m.Machines {
		mm := &m.Machines[i]
		mach, err := c.restoreMachine(mm)
		if err != nil {
			return fail(fmt.Errorf("mmt: restoring machine %q: %w", mm.Name, err))
		}
		c.machines[mm.Name] = mach
		c.machineOrder = append(c.machineOrder, mm.Name)
	}
	for _, lm := range m.Links {
		a, err := c.restoredEnclave(lm.MachineA, lm.EnclaveA)
		if err != nil {
			return fail(fmt.Errorf("mmt: restoring link %s: %w", lm.ID, err))
		}
		b, err := c.restoredEnclave(lm.MachineB, lm.EnclaveB)
		if err != nil {
			return fail(fmt.Errorf("mmt: restoring link %s: %w", lm.ID, err))
		}
		c.links[lm.ID] = &Link{cluster: c, id: lm.ID, a: a, b: b}
		c.linkOrder = append(c.linkOrder, lm.ID)
	}

	// The verified-reload check: the restored cluster must capture to
	// exactly the hashed state. Any drift — a patch applied wrong, a
	// record lost, nondeterminism in the capture — fails the load.
	again, err := c.buildModel()
	if err != nil {
		return fail(fmt.Errorf("mmt: re-snapshotting restored cluster: %w", err))
	}
	if got := snap.Hash(again); got != wantHash {
		return fail(fmt.Errorf("%w: restored state hashes to %x, snapshot pinned %x",
			ErrBadSnapshot, got, wantHash))
	}
	return c, nil
}

// restoreMachine rebuilds one machine: identity re-verified, every live
// region cryptographically re-installed, monitor bookkeeping reattached,
// enclave handles adopted in id order.
func (c *Cluster) restoreMachine(mm *snap.Machine) (*Machine, error) {
	ident, err := attest.RestoreMachine(c.mfr.PublicKey(), mm.Name, mm.KeyDER, mm.Cert)
	if err != nil {
		return nil, err
	}
	pm := mem.New(mem.Config{
		Size:          c.set.regions * c.geometry.DataSize(),
		RegionSize:    c.geometry.DataSize(),
		MetaPerRegion: c.geometry.MetaSize(),
	})
	ctl, err := engine.New(pm, c.geometry, nil, c.set.profile)
	if err != nil {
		return nil, err
	}
	ctl.SetTrace(c.set.trace.Probe(mm.Name))

	// Region state first (Controller.Install verifies every node and line
	// MAC under the persisted key before enabling anything), so the
	// monitor's RestoreMMT finds live regions where its records say.
	for _, rm := range mm.Regions {
		rec, ok := mmtRecFor(mm.Mon, rm.Index)
		if !ok {
			return nil, fmt.Errorf("region %d has controller state but no MMT record", rm.Index)
		}
		if rec.State != core.StateValid {
			return nil, fmt.Errorf("region %d: controller state with MMT in state %v", rm.Index, rec.State)
		}
		mode := engine.ModeReadWrite
		if rec.ReadOnly {
			mode = engine.ModeReadOnly
		}
		if err := ctl.Install(rm.Index, rec.Key, rec.GUAddr, rm.RootCounter, rm.Tree, rm.Data, rm.LineMACs, mode); err != nil {
			return nil, fmt.Errorf("region %d: %w", rm.Index, err)
		}
	}
	ctl.Clock().SetNow(mm.Clock)
	ctl.RestoreStats(mm.Stats)

	// Restored connections send on the endpoint: attach before Restore.
	mon := monitor.New(ident, c.measurement, c.authority.PublicKey(), ctl)
	if err := mon.AttachNetwork(c.net, mm.Name); err != nil {
		return nil, err
	}
	if err := mon.Restore(mm.Mon); err != nil {
		return nil, err
	}
	m := &Machine{name: mm.Name, cluster: c, ident: ident, mon: mon}
	for _, rec := range mm.Mon.Enclaves {
		m.enclaves = append(m.enclaves, &Enclave{machine: m, name: rec.Name, id: rec.ID})
	}
	return m, nil
}

func mmtRecFor(s *monitor.Snapshot, region int) (monitor.MMTRec, bool) {
	for _, rec := range s.MMTs {
		if rec.Region == region {
			return rec, true
		}
	}
	return monitor.MMTRec{}, false
}

func (c *Cluster) restoredEnclave(machine string, id monitor.EnclaveID) (*Enclave, error) {
	m, ok := c.machines[machine]
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", machine)
	}
	for _, e := range m.enclaves {
		if e.id == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("no enclave %d on %q", id, machine)
}

// ---------------------------------------------------------------------------
// Save / Load: one-shot portable snapshots.

// Save writes a verified snapshot of the quiescent cluster to w: the
// canonical mmt-snap/v1 blob followed by the 32-byte state hash of the
// model it encodes. The cluster keeps running; Save does not mutate
// simulated state and clears no dirty bit. The returned Manifest
// describes what was saved (ParseManifest reads its JSON form back).
func (c *Cluster) Save(w io.Writer) (*Manifest, error) {
	m, err := c.buildModel()
	if err != nil {
		return nil, err
	}
	blob := snap.Encode(m)
	hash := c.stateHash(m)
	if _, err := w.Write(blob); err != nil {
		return nil, err
	}
	if _, err := w.Write(hash[:]); err != nil {
		return nil, err
	}
	return manifestFor(m, 0, hash, len(blob)+len(hash)), nil
}

// Load rebuilds a cluster from a Save stream — in this process or any
// other. The snapshot is authoritative for structure: WithProfile,
// WithTreeLevels, WithRegions and WithNetLatency are rejected here;
// WithTracing, WithDebugServer and WithStore apply to the restored
// cluster. Every certificate, attestation report, tree node and line MAC
// is re-verified, and the restored cluster must hash to the exact value
// the stream pinned. The blob is parsed before it is authenticated (the
// hash is over the model), which the codec is built for: every length and
// index is range-checked as it is read.
func Load(r io.Reader, opts ...Option) (*Cluster, error) {
	s, err := applySettings(opts)
	if err != nil {
		return nil, err
	}
	if s.set&structuralSettings != 0 {
		return nil, errors.New("mmt: Load: the snapshot pins profile, tree levels, regions and net latency; drop the structural options")
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var want [32]byte
	if len(data) < len(snap.Magic)+len(want) {
		return nil, fmt.Errorf("%w: %d bytes is shorter than magic + hash", ErrBadSnapshot, len(data))
	}
	blob := data[:len(data)-len(want)]
	copy(want[:], data[len(blob):])
	m, err := snap.Decode(blob)
	if err != nil {
		return nil, err
	}
	if got := snap.Hash(m); got != want {
		return nil, fmt.Errorf("%w: snapshot hashes to %x, trailer says %x", ErrBadSnapshot, got, want)
	}
	storePath := s.storePath
	s.storePath = "" // the store is attached below, after restore succeeds
	c, err := restoreCluster(m, s, want)
	if err != nil {
		return nil, err
	}
	if storePath != "" {
		st, err := store.Open(store.Dir{Path: storePath})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.set.storePath = storePath
		c.ckpt = st // restoreCluster left needBase set: the first commit is a base
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// The checkpoint store: WithStore + Checkpoint + Open.

// Checkpoint streams the cluster's state into the attached store and
// commits it crash-consistently: after a structural change (machines,
// links, delegations) a full base snapshot, otherwise just the dirty
// deltas — per-machine clocks and stats, changed tree nodes, changed
// data lines — batched into sequential writes. On return the committed
// state is durable: a crash at any later point recovers to it (or to a
// newer commit), never to a torn hybrid. Requires quiescence, like Save.
func (c *Cluster) Checkpoint() error {
	if c.ckpt == nil {
		return ErrNoStore
	}
	// The commit record pins the hash of the whole state, so the full
	// model is always captured; only a base record needs it encoded.
	m, err := c.buildModel()
	if err != nil {
		return err
	}
	hash := c.stateHash(m)
	if c.needBase {
		if err := c.ckpt.Append(store.Record{Type: snap.RecBase, Payload: snap.Encode(m)}); err != nil {
			return err
		}
	} else if err := c.appendDeltas(m); err != nil {
		return err
	}
	if _, err := c.ckpt.Commit(hash); err != nil {
		return err
	}
	// Only after the commit is durable do the dirty bits clear — a failed
	// commit leaves them set, so the next attempt re-streams and re-hashes
	// everything they name.
	c.needBase = false
	for _, name := range c.machineOrder {
		ctl := c.machines[name].mon.Node().Controller()
		for r := 0; r < c.set.regions; r++ {
			ctl.ClearRegionDirty(r)
		}
	}
	return nil
}

// appendDeltas stages the dirty state as patch records. Structural facts
// (membership, links, capability tables) are covered by the base the
// deltas patch: every structural mutation sets needBase, so a delta
// commit only ever carries clock/stats movement and data-path writes.
func (c *Cluster) appendDeltas(m *snap.Model) error {
	var (
		err error
		w   cursor.Writer // every patch is encoded here: Append copies it into the store's batch
	)
	put := func(p snap.Patch) {
		if err == nil {
			w.Buf = w.Buf[:0]
			p.AppendTo(&w)
			err = c.ckpt.Append(store.Record{Type: p.Type, Payload: w.Buf})
		}
	}
	for i := range m.Machines { // buildModel emits machines in machineOrder
		mm := &m.Machines[i]
		ctl := c.machines[mm.Name].mon.Node().Controller()
		put(snap.Patch{Type: snap.RecMachine, Machine: mm.Name, Clock: mm.Clock, Stats: mm.Stats})
		for _, rm := range mm.Regions {
			r := rm.Index
			put(snap.Patch{Type: snap.RecRoot, Machine: mm.Name, Region: r, Counter: rm.RootCounter})
			if !ctl.RegionDirty(r) {
				continue
			}
			tr := ctl.Tree(r)
			var node []byte // scratch: put copies, so one buffer serves every dirty node
			tr.DirtyNodes(func(level, index int) {
				node = tr.AppendNode(node[:0], level, index)
				put(snap.Patch{Type: snap.RecNode, Machine: mm.Name, Region: r, Level: level, Index: index, Bytes: node})
			})
			ctl.DirtyLines(r, func(line int) {
				ct, mac := ctl.LineState(r, line)
				put(snap.Patch{Type: snap.RecLine, Machine: mm.Name, Region: r, Index: line, Bytes: ct, MAC: mac})
			})
		}
	}
	return err
}

// Open resumes a cluster from the last committed state of a WithStore
// directory: recover the commit record, replay base + deltas, restore
// with full re-verification, and keep checkpointing into the same store.
// A store that never committed returns ErrNoSnapshot. Structural options
// are rejected as in Load; WithStore is implied by path and rejected too.
func Open(path string, opts ...Option) (*Cluster, error) {
	s, err := applySettings(opts)
	if err != nil {
		return nil, err
	}
	if s.set&structuralSettings != 0 {
		return nil, errors.New("mmt: Open: the snapshot pins profile, tree levels, regions and net latency; drop the structural options")
	}
	if s.set&setStore != 0 {
		return nil, errors.New("mmt: Open: the path argument names the store; drop WithStore")
	}
	st, err := store.Open(store.Dir{Path: path})
	if err != nil {
		return nil, err
	}
	c, err := openFromStore(st, s)
	if err != nil {
		st.Close()
		return nil, err
	}
	c.set.storePath = path
	return c, nil
}

// openFromStore resumes from an already-open store (shared by Open and
// the in-memory crash tests).
func openFromStore(st *store.Store, s settings) (*Cluster, error) {
	if !st.HasCommit() {
		return nil, ErrNoSnapshot
	}
	cr, err := st.Committed()
	if err != nil {
		return nil, err
	}
	recs, err := st.CommittedRecords()
	if err != nil {
		return nil, err
	}
	m, err := snap.Replay(recs)
	if err != nil {
		return nil, err
	}
	c, err := restoreCluster(m, s, cr.RootHash)
	if err != nil {
		return nil, err
	}
	c.ckpt = st // restoreCluster left needBase set: the first commit after resume re-bases the log
	return c, nil
}

// ---------------------------------------------------------------------------
// Manifest: the human/CI-facing description of a snapshot.

// manifestSchema identifies the manifest's JSON form.
const manifestSchema = "mmt-manifest/v1"

// Manifest describes one saved snapshot or store commit. WriteJSON
// renders it as an mmt-manifest/v1 document and ParseManifest reads one
// back.
type Manifest struct {
	Schema string `json:"schema"`
	// Epoch is the store commit epoch (0 for a direct Save).
	Epoch uint64 `json:"epoch"`
	// RootHash is the hex state hash of the snapshot (snap.Hash: a SHA-256
	// tree over every field and plane byte of the model) — the value a
	// Save trailer and a store commit record pin. Two runs of one program
	// differ in it by design: the model carries fresh keys (ECDSA keys and
	// signatures, each link's X25519 key) and the bytes computed under them.
	RootHash string `json:"root_hash"`
	// SnapshotBytes is the encoded size (blob + hash trailer for Save;
	// base blob size for store commits).
	SnapshotBytes int               `json:"snapshot_bytes"`
	TreeLevels    int               `json:"tree_levels"`
	Regions       int               `json:"regions"`
	Profile       string            `json:"profile"`
	Machines      []ManifestMachine `json:"machines"`
	Links         []string          `json:"links"`
}

// ManifestMachine is one machine's row in a Manifest.
type ManifestMachine struct {
	Name        string  `json:"name"`
	NodeID      uint16  `json:"node_id"`
	Clock       float64 `json:"clock_seconds"`
	LiveRegions int     `json:"live_regions"`
}

func manifestFor(m *snap.Model, epoch uint64, hash [32]byte, size int) *Manifest {
	mf := &Manifest{
		Schema:        manifestSchema,
		Epoch:         epoch,
		RootHash:      hex.EncodeToString(hash[:]),
		SnapshotBytes: size,
		TreeLevels:    m.TreeLevels,
		Regions:       m.Regions,
		Profile:       m.Profile.Name,
		Machines:      []ManifestMachine{},
		Links:         []string{},
	}
	for _, mm := range m.Machines {
		mf.Machines = append(mf.Machines, ManifestMachine{
			Name:        mm.Name,
			NodeID:      uint16(mm.Mon.NodeID),
			Clock:       float64(mm.Clock),
			LiveRegions: len(mm.Regions),
		})
	}
	for _, l := range m.Links {
		mf.Links = append(mf.Links, l.ID)
	}
	return mf
}

// ParseManifest is WriteJSON's reader: a strict decode (an unknown key,
// or the absence of one the encoder always writes, is an error) of a
// manifest that manifestFor could have built — a 64-digit lowercase-hex
// root hash, a snapshot size that holds at least the hash trailer, 2–4
// tree levels, at least one region, name-ordered machines with
// non-negative finite clocks and no more live regions than the profile
// has, and non-empty link ids.
func ParseManifest(data []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := trace.DecodeStrict(manifestSchema, data, m); err != nil {
		return nil, err
	}
	bad := func(format string, args ...interface{}) (*Manifest, error) {
		return nil, fmt.Errorf("mmt: manifest: "+format, args...)
	}
	if m.Schema != manifestSchema {
		return bad("schema %q, want %q", m.Schema, manifestSchema)
	}
	if len(m.RootHash) != 64 || strings.Trim(m.RootHash, "0123456789abcdef") != "" {
		return bad("root_hash %q is not 64 lowercase hex digits", m.RootHash)
	}
	if m.SnapshotBytes <= len(m.RootHash)/2 {
		return bad("snapshot_bytes %d cannot hold the hash trailer", m.SnapshotBytes)
	}
	if m.TreeLevels < 2 || m.TreeLevels > 4 || m.Regions < 1 || m.Profile == "" || len(m.Machines) == 0 {
		return bad("want tree_levels in [2,4], regions >= 1, a profile and at least one machine; got %d, %d, %q, %d machines",
			m.TreeLevels, m.Regions, m.Profile, len(m.Machines))
	}
	for i, mc := range m.Machines {
		if mc.Name == "" || i > 0 && mc.Name <= m.Machines[i-1].Name {
			return bad("machines[%d]: name %q empty or out of name order", i, mc.Name)
		}
		if !(mc.Clock >= 0) || math.IsInf(mc.Clock, 0) || mc.LiveRegions < 0 || mc.LiveRegions > m.Regions {
			return bad("machine %q: clock_seconds %v or live_regions %d out of range [0,%d]", mc.Name, mc.Clock, mc.LiveRegions, m.Regions)
		}
	}
	for i, l := range m.Links {
		if l == "" {
			return bad("links[%d]: empty id", i)
		}
	}
	return m, nil
}

// Manifest describes the cluster's current state as Save would snapshot
// it (Epoch reflects the attached store's committed epoch, 0 without a
// store). Requires quiescence.
func (c *Cluster) Manifest() (*Manifest, error) {
	m, err := c.buildModel()
	if err != nil {
		return nil, err
	}
	hash := c.stateHash(m)
	var epoch uint64
	if c.ckpt != nil {
		epoch = c.ckpt.Epoch()
	}
	return manifestFor(m, epoch, hash, len(snap.Encode(m))+len(hash)), nil
}

// WriteJSON renders the manifest as indented mmt-manifest/v1 JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
