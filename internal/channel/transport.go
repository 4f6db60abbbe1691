package channel

import (
	"fmt"

	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/forest"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// Transport is the message-passing face the distributed applications
// (MapReduce, GAS) program against, keeping them agnostic of which of the
// three protection schemes carries their traffic — the compatibility goal
// of §III-A.
type Transport interface {
	// Send delivers one whole message to the peer.
	Send(payload []byte) error
	// Recv returns the next whole message.
	Recv() ([]byte, error)
}

// delegationTransport adapts Delegation's chunked API to Transport.
type delegationTransport struct{ d *Delegation }

func (t delegationTransport) Send(p []byte) error   { return t.d.Send(p) }
func (t delegationTransport) Recv() ([]byte, error) { return t.d.RecvMessage() }
func (t delegationTransport) Stats() Stats          { return t.d.Stats() }

// Scheme names one of the three transfer paths.
type Scheme int

const (
	// SchemeNonSecure is the unprotected remote write.
	SchemeNonSecure Scheme = iota
	// SchemeSecure is the software AES-GCM channel.
	SchemeSecure
	// SchemeDelegation is MMT closure delegation.
	SchemeDelegation
)

// Side describes the machine at one end of a pair.
type Side struct {
	// Name is the end's endpoint name on the network.
	Name  string
	Clock *sim.Clock
	// Probe receives the end's wire bytes and channel cycles; nil disables
	// tracing.
	Probe *trace.Probe
	// Node and Regions (the end's buffer-region pool) are read by
	// SchemeDelegation only.
	Node    *core.Node
	Regions []int
}

// Host is one machine of a distributed application (MapReduce, GAS): its
// clock, its trace probe and, under SchemeDelegation, its MMT node, whose
// regions it hands out to the pools of its channel ends.
type Host struct {
	Name  string
	Clock *sim.Clock
	Probe *trace.Probe // nil = tracing disabled
	Node  *core.Node   // SchemeDelegation only
	next  int          // the first region no pool holds yet
}

// NewHost builds the host named name on its own clock; under
// SchemeDelegation with a node of the given forest id over regions
// regions of geo. The probe is passed in, not registered here, so hosts
// can be built in parallel: Sink.Probe mutates the shared sink.
func NewHost(scheme Scheme, name string, id, regions int, geo tree.Geometry, prof *sim.Profile, probe *trace.Probe) (*Host, error) {
	h := &Host{Name: name, Clock: sim.NewClock(prof.FreqHz), Probe: probe}
	if scheme != SchemeDelegation {
		return h, nil
	}
	ctl, err := engine.NewRegions(regions, geo, h.Clock, prof)
	if err != nil {
		return nil, err
	}
	ctl.SetTrace(probe)
	h.Node = core.NewNode(forest.NodeID(id), ctl)
	return h, nil
}

// Side describes h as the end named name of one pair, with a pool of n
// regions of its own (numbered in every scheme, read under
// SchemeDelegation only).
func (h *Host) Side(name string, n int) Side {
	s := Side{Name: name, Clock: h.Clock, Probe: h.Probe, Node: h.Node, Regions: make([]int, n)}
	for i := range s.Regions {
		s.Regions[i] = h.next + i
	}
	h.next += n
	return s
}

// NewPair attaches a dedicated endpoint for each side (QP-like) and joins
// the two with one channel of the given scheme under key, every endpoint
// and channel end recording into its side's probe. It returns the two
// ends' transports, a's first.
func NewPair(scheme Scheme, net *netsim.Network, a, b Side, key crypt.Key, prof *sim.Profile) (Transport, Transport, error) {
	end := func(side Side, peer string) (Transport, error) {
		ep, err := net.Attach(side.Name, side.Clock)
		if err != nil {
			return nil, err
		}
		ep.SetTrace(side.Probe)
		switch scheme {
		case SchemeNonSecure:
			c := NewNonSecure(ep, peer, prof)
			c.SetTrace(side.Probe)
			return c, nil
		case SchemeSecure:
			c, err := NewSecure(ep, peer, prof, key)
			if err != nil {
				return nil, err
			}
			c.SetTrace(side.Probe)
			return c, nil
		case SchemeDelegation:
			c := NewDelegation(ep, peer, prof, side.Node, core.NewConn(key, 0), side.Regions)
			c.SetTrace(side.Probe)
			return delegationTransport{c}, nil
		default:
			return nil, fmt.Errorf("channel: unknown scheme %d", int(scheme))
		}
	}
	ta, err := end(a, b.Name)
	if err != nil {
		return nil, nil, err
	}
	tb, err := end(b, a.Name)
	if err != nil {
		return nil, nil, err
	}
	return ta, tb, nil
}

// Interface conformance for the two flat channels.
var (
	_ Transport = (*NonSecure)(nil)
	_ Transport = (*Secure)(nil)
)
