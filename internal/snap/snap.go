// Package snap owns mmt-snap/v1: the plain-struct model of everything a
// quiescent cluster persists, its canonical encoding, and the delta
// records a checkpoint store streams between full snapshots.
//
// Every layout is written once: a codec either appends to a
// cursor.Writer or consumes a cursor.Reader, and each structure is one
// function walking its fields through it, so encoder and decoder cannot
// disagree and every range check on untrusted input sits next to the
// field it guards and fails with ErrBadSnapshot. Integers are fixed-width
// little-endian, floats their IEEE-754 bits, slices length-prefixed in a
// deterministic order: Encode(Decode(b)) == b for every accepted b, so a
// hash of the model is a hash of the bytes. That hash (hash.go) is a
// two-level SHA-256 tree over the model, which a Hasher recomputes only
// where the cluster's dirty bits say it changed.
package snap

import (
	"errors"

	"mmt/internal/attest"
	"mmt/internal/cursor"
	"mmt/internal/engine"
	"mmt/internal/monitor"
	"mmt/internal/sim"
)

// Magic tags the canonical snapshot encoding.
const Magic = "mmt-snap/v1\x00"

// ErrBadSnapshot: the snapshot bytes are malformed or fail their hash.
var ErrBadSnapshot = errors.New("mmt: malformed snapshot")

// Model is the image of a cluster.
type Model struct {
	TreeLevels, Regions int
	NetLatency          sim.Time
	Profile             *sim.Profile
	MfrKey              []byte
	Authority           *attest.AuthorityState
	Machines            []Machine
	Links               []Link
}

// Machine is one machine: identity, clock, controller counters, monitor
// tables and the controller state of every live region.
type Machine struct {
	Name    string
	KeyDER  []byte
	Cert    attest.Certificate
	Clock   sim.Time
	Stats   engine.Stats
	Mon     *monitor.Snapshot
	Regions []Region
}

// Region is one live region as Controller.Export produces it and
// Controller.Install verifies it.
type Region struct {
	Index       int
	RootCounter uint64
	Tree, Data  []byte
	LineMACs    []uint64
}

// Link is one delegation link between two enclaves.
type Link struct {
	ID, MachineA, MachineB string
	EnclaveA, EnclaveB     monitor.EnclaveID
}

// Encode renders the model in its canonical form.
func Encode(m *Model) []byte {
	c := codec{Codec: cursor.Encoder(0)}
	c.model(m)
	return c.W.Buf
}

// Decode parses and range-checks a canonical blob.
func Decode(blob []byte) (*Model, error) {
	c := codec{Codec: cursor.Decoder(blob, ErrBadSnapshot)}
	m := &Model{}
	c.model(m)
	if err := c.R.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// codec is the cursor.Codec the layouts below walk, plus the one piece of
// decoded state their range checks need — the region count that bounds
// every region index — and the encoder's switch for the form the state
// hash takes its field digest over (hash.go).
type codec struct {
	*cursor.Codec
	regions int
	elide   bool // encoding only: leave out every region's Tree, Data and LineMACs
}

func u8[T ~uint8](c *codec, v *T)                    { cursor.U8(c.Codec, v) }
func u32[T ~int | ~uint16 | ~uint32](c *codec, v *T) { cursor.U32(c.Codec, v) }
func u64[T ~int | ~uint64](c *codec, v *T)           { cursor.U64(c.Codec, v) }
func f64[T ~float64](c *codec, v *T)                 { cursor.F64(c.Codec, v) }

func list[T any](c *codec, s *[]T, elemSize int, elem func(*T)) {
	cursor.List(c.Codec, s, elemSize, elem)
}

func (c *codec) caps(s *[]monitor.CapID) {
	list(c, s, 8, func(id *monitor.CapID) { u64(c, id) })
}

// region codes a region index. None outside [0, regions) is accepted:
// restore indexes controller and memory tables with it.
func (c *codec) region(v *int) {
	if u32(c, v); c.R != nil && (*v < 0 || *v >= c.regions) {
		c.R.Fail("region %d out of range [0,%d)", *v, c.regions)
	}
}

func (c *codec) model(m *Model) {
	c.Magic(Magic)
	u32(c, &m.TreeLevels)
	u32(c, &m.Regions)
	if c.R != nil {
		// The bounds WithTreeLevels and WithRegions enforce at build time.
		if m.TreeLevels < 2 || m.TreeLevels > 4 || m.Regions < 1 {
			c.R.Fail("geometry of %d tree levels, %d regions", m.TreeLevels, m.Regions)
		}
		c.regions = m.Regions
		m.Profile, m.Authority = &sim.Profile{}, &attest.AuthorityState{}
	}
	f64(c, &m.NetLatency)
	c.profile(m.Profile)
	c.Bytes(&m.MfrKey)
	c.Bytes(&m.Authority.KeyDER)
	list(c, &m.Authority.Policy, 32, func(p *attest.Measurement) { c.Fixed(p[:]) })
	u32(c, &m.Authority.NextID)
	list(c, &m.Machines, 4, c.machine)
	list(c, &m.Links, 4, func(l *Link) {
		c.String(&l.ID)
		c.String(&l.MachineA)
		u32(c, &l.EnclaveA)
		c.String(&l.MachineB)
		u32(c, &l.EnclaveB)
	})
}

func (c *codec) profile(p *sim.Profile) {
	c.String(&p.Name)
	f64(c, &p.FreqHz)
	f64(c, &p.EncryptSetup)
	f64(c, &p.EncryptPerByte)
	f64(c, &p.DecryptSetup)
	f64(c, &p.DecryptPerByte)
	var pts []sim.CurvePoint
	if c.W != nil {
		pts = p.Memcpy.Points()
	}
	list(c, &pts, 16, func(pt *sim.CurvePoint) {
		u64(c, &pt.Size)
		f64(c, &pt.PerByte)
	})
	if c.R != nil && c.R.Err() == nil {
		// sim.NewCurve panics on anything but what Points reports: at least
		// one point, positive sizes, strictly increasing.
		ok := len(pts) > 0
		for i, pt := range pts {
			ok = ok && pt.Size > 0 && (i == 0 || pt.Size > pts[i-1].Size)
		}
		if ok {
			p.Memcpy = sim.NewCurve(pts...)
		} else {
			c.R.Fail("memcpy curve of %d points is empty or not strictly increasing", len(pts))
		}
	}
	f64(c, &p.MemcpySetup)
	f64(c, &p.RemoteWriteSetup)
	f64(c, &p.RemoteWritePerByte)
	f64(c, &p.DelegationFixed)
	f64(c, &p.NetLatency)
	f64(c, &p.DRAMAccess)
	f64(c, &p.AESLatency)
	f64(c, &p.MACLatency)
	u64(c, &p.MMTCacheBytes)
	u64(c, &p.RootTableSoC)
	u64(c, &p.SecureMemory)
}

func (c *codec) machine(m *Machine) {
	c.String(&m.Name)
	c.Bytes(&m.KeyDER)
	c.String(&m.Cert.Subject)
	c.Bytes(&m.Cert.PublicKey)
	c.Bytes(&m.Cert.Signature)
	f64(c, &m.Clock)
	c.stats(&m.Stats)
	if c.R != nil {
		m.Mon = &monitor.Snapshot{Report: &attest.Report{}}
	}
	c.monitor(m.Mon)
	list(c, &m.Regions, 24, func(r *Region) {
		c.region(&r.Index)
		u64(c, &r.RootCounter)
		if c.elide {
			return
		}
		c.Bytes(&r.Tree)
		c.Bytes(&r.Data)
		list(c, &r.LineMACs, 8, func(mac *uint64) { u64(c, mac) })
	})
}

func (c *codec) stats(s *engine.Stats) {
	u64(c, &s.Reads)
	u64(c, &s.Writes)
	u64(c, &s.NodeHits)
	u64(c, &s.NodeMisses)
	u64(c, &s.RootMounts)
	u64(c, &s.DataAccesses)
	u64(c, &s.ReencryptedLines)
	f64(c, &s.Cycles)
}

func (c *codec) monitor(s *monitor.Snapshot) {
	u32(c, &s.NodeID)
	u32(c, &s.Report.NodeID)
	c.String(&s.Report.Subject)
	c.Fixed(s.Report.Measurement[:])
	c.Bytes(&s.Report.MachinePublicKey)
	c.Bytes(&s.Report.Signature)
	u32(c, &s.NextEnclave)
	u64(c, &s.NextCap)
	u64(c, &s.AllocNext)
	list(c, &s.Pool, 4, c.region)
	list(c, &s.Enclaves, 44, func(e *monitor.EnclaveRec) {
		u32(c, &e.ID)
		c.String(&e.Name)
		c.Fixed(e.Measurement[:])
		c.caps(&e.Caps)
	})
	list(c, &s.PMOs, 16, func(p *monitor.PMORec) {
		u64(c, &p.Cap)
		c.region(&p.Region)
		u32(c, &p.Owner)
	})
	list(c, &s.MMTs, 31, func(m *monitor.MMTRec) {
		c.region(&m.Region)
		u8(c, &m.State)
		c.Fixed(m.Key[:])
		u64(c, &m.GUAddr)
		u8(c, &m.Mode)
		c.Bool(&m.ReadOnly)
	})
	list(c, &s.Conns, 68, func(n *monitor.ConnRec) {
		c.String(&n.ID)
		u32(c, &n.Local)
		c.String(&n.PeerMonitor)
		u32(c, &n.PeerEnclave)
		c.Fixed(n.Key[:])
		u64(c, &n.LastCounter)
		u64(c, &n.LastGUAddr)
		u64(c, &n.RecvCap)
		c.caps(&n.Received)
		u64(c, &n.Acked)
	})
}
