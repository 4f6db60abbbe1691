package channel

import (
	"fmt"

	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
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
