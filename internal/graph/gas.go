// Package graph implements the distributed Gather-Apply-Scatter engine of
// §VI-C2: a partitioned graph across simulated machines where each GAS
// iteration runs gather, apply, scatter, plus the paper's added
// remote-transfer phase that ships cross-machine messages through one of
// the three transfer channels. PageRank is the bundled apply function.
//
// Buffering follows Figure 14a: each machine keeps a scatter buffer per
// peer; at the remote-transfer phase the buffer is flushed (one message per
// peer per iteration) into the peer's gather buffer, so the gather phase
// always starts with all remote messages locally resident.
package graph

import (
	"errors"
	"fmt"
	"math"

	"mmt/internal/channel"
	"mmt/internal/crypt"
	"mmt/internal/cursor"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
	"mmt/internal/workload"
)

// Mode mirrors mapreduce.Mode for the three channel schemes.
type Mode int

// The values are channel.Scheme's, so a Mode picks its transport by
// conversion; the names are Figure 14's.
const (
	// NonSecure runs with the MMT engine disabled (Figure 14's
	// "Non-secure").
	NonSecure = Mode(channel.SchemeNonSecure)
	// SecureChannel protects remote transfers with AES-GCM.
	SecureChannel = Mode(channel.SchemeSecure)
	// MMT uses closure delegation for remote transfers.
	MMT = Mode(channel.SchemeDelegation)
)

func (m Mode) String() string {
	switch m {
	case NonSecure:
		return "non-secure"
	case SecureChannel:
		return "secure-channel"
	case MMT:
		return "mmt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config sizes a GAS run.
type Config struct {
	Machines int
	Mode     Mode
	Profile  *sim.Profile
	Geometry tree.Geometry // MMT mode only
	// PoolRegions is the per-channel delegation buffer pool.
	PoolRegions int
	// GatherCycles, ApplyCycles, ScatterCycles model per-edge/per-vertex
	// compute.
	GatherCyclesPerMsg   float64
	ApplyCyclesPerVertex float64
	ScatterCyclesPerEdge float64
	NetLatency           sim.Time
	// Iterations caps the GAS loop.
	Iterations int
	// Damping is the PageRank damping factor (0.85 if zero).
	Damping float64
	// Epsilon, when positive, stops early once the L1 rank delta of an
	// iteration falls below it (convergence-based termination).
	Epsilon float64
	// Trace, when non-nil, receives every cycle machine i charges under
	// probe "gas-m<i>": compute as app-compute phase cycles, and what its
	// controller, endpoints and channels charge under their own phases.
	// Nil disables tracing with no overhead.
	Trace *trace.Sink
}

// PhaseBreakdown records where one machine's cycles went — the Figure 14b
// phase split.
type PhaseBreakdown struct {
	Gather, Apply, Scatter, RemoteTransfer sim.Cycles
}

// Total sums the phases.
func (p PhaseBreakdown) Total() sim.Cycles {
	return p.Gather + p.Apply + p.Scatter + p.RemoteTransfer
}

// Result is the outcome of one PageRank run.
type Result struct {
	Ranks   []float64
	Elapsed sim.Time
	// Breakdown aggregates phase cycles across machines.
	Breakdown PhaseBreakdown
	// CrossEdges is the cross-machine edge count (message volume driver).
	CrossEdges int
	// Iterations is the number of GAS iterations actually executed (may be
	// below the cap when Epsilon converges early).
	Iterations int
}

// vertexMsg is one scatter message: rank mass pushed along an edge.
type vertexMsg struct {
	Dst  int32
	Mass float64
}

var errBadMsgs = errors.New("graph: malformed message block")

// msgLayout is a scatter block in both directions: a message count, then
// 12 bytes a message.
func msgLayout(c *cursor.Codec, msgs *[]vertexMsg) {
	cursor.List(c, msgs, 12, func(m *vertexMsg) {
		cursor.U32(c, &m.Dst)
		cursor.F64(c, &m.Mass)
	})
}

func encodeMsgs(msgs []vertexMsg) []byte {
	c := cursor.Encoder(4 + 12*len(msgs))
	msgLayout(c, &msgs)
	return c.W.Buf
}

func decodeMsgs(b []byte) ([]vertexMsg, error) {
	c := cursor.Decoder(b, errBadMsgs)
	var msgs []vertexMsg
	msgLayout(c, &msgs)
	if err := c.R.Done(); err != nil {
		return nil, err
	}
	return msgs, nil
}

// machine is one GAS worker: a channel host and its links.
type machine struct {
	*channel.Host
	id        int
	sendTo    map[int]channel.Transport
	recvFrom  map[int]channel.Transport
	breakdown PhaseBreakdown
}

// PageRank runs the damped PageRank algorithm for cfg.Iterations over g,
// partitioned across cfg.Machines machines.
func PageRank(cfg Config, g *workload.Graph) (*Result, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("graph: need at least one machine")
	}
	if cfg.Profile == nil {
		return nil, fmt.Errorf("graph: nil profile")
	}
	if cfg.Iterations < 1 {
		cfg.Iterations = 1
	}
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
	if cfg.PoolRegions == 0 {
		cfg.PoolRegions = 4
	}
	owner, cross := g.Partition(cfg.Machines)
	net := netsim.NewNetwork(cfg.NetLatency)

	// Build machines.
	machines := make([]*machine, cfg.Machines)
	for i := range machines {
		name := fmt.Sprintf("gas-m%d", i)
		h, err := channel.NewHost(channel.Scheme(cfg.Mode), name, i+1, 2*(cfg.Machines-1)*cfg.PoolRegions, cfg.Geometry, cfg.Profile, cfg.Trace.Probe(name))
		if err != nil {
			return nil, err
		}
		machines[i] = &machine{Host: h, id: i, sendTo: map[int]channel.Transport{}, recvFrom: map[int]channel.Transport{}}
	}

	// Pairwise links (both directions on distinct endpoints).
	for i := 0; i < cfg.Machines; i++ {
		for j := i + 1; j < cfg.Machines; j++ {
			for _, dir := range [][2]int{{i, j}, {j, i}} {
				src, dst := machines[dir[0]], machines[dir[1]]
				tag := fmt.Sprintf("g%d-%d", dir[0], dir[1])
				send, recv, err := channel.NewPair(channel.Scheme(cfg.Mode), net,
					src.Side(tag+"/s", cfg.PoolRegions), dst.Side(tag+"/d", cfg.PoolRegions), crypt.KeyFromBytes([]byte(tag)), cfg.Profile)
				if err != nil {
					return nil, err
				}
				src.sendTo[dst.id] = send
				dst.recvFrom[src.id] = recv
			}
		}
	}

	// Per-machine edge lists and out-degrees.
	outDeg := make([]int, g.N)
	for _, e := range g.Edges {
		outDeg[e[0]]++
	}
	localEdges := make([][][2]int32, cfg.Machines)
	for _, e := range g.Edges {
		localEdges[owner[e[0]]] = append(localEdges[owner[e[0]]], e)
	}

	ranks := make([]float64, g.N)
	for v := range ranks {
		ranks[v] = 1.0 / float64(g.N)
	}
	incoming := make([]float64, g.N)

	chargePhase := func(m *machine, bucket *sim.Cycles, before sim.Cycles) {
		*bucket += m.Clock.NowCycles() - before
	}

	iterationsRun := 0
	for iter := 0; iter < cfg.Iterations; iter++ {
		iterationsRun++
		// Scatter: each machine pushes rank mass along its out-edges,
		// buffering cross-machine messages per destination machine.
		outbox := make([]map[int][]vertexMsg, cfg.Machines)
		for mi, m := range machines {
			start := m.Clock.NowCycles()
			outbox[mi] = map[int][]vertexMsg{}
			for _, e := range localEdges[mi] {
				src, dst := int(e[0]), int(e[1])
				mass := ranks[src] / float64(outDeg[src])
				if owner[dst] == mi {
					incoming[dst] += mass
				} else {
					outbox[mi][owner[dst]] = append(outbox[mi][owner[dst]], vertexMsg{Dst: int32(dst), Mass: mass})
				}
			}
			cost := sim.Cycles(float64(len(localEdges[mi])) * cfg.ScatterCyclesPerEdge)
			m.Probe.Charge(m.Clock, trace.PhaseApp, cost)
			chargePhase(m, &m.breakdown.Scatter, start)
		}

		// Remote-transfer: flush scatter buffers to peers' gather buffers.
		for mi, m := range machines {
			start := m.Clock.NowCycles()
			for peer := 0; peer < cfg.Machines; peer++ {
				if peer == mi {
					continue
				}
				if err := m.sendTo[peer].Send(encodeMsgs(outbox[mi][peer])); err != nil {
					return nil, fmt.Errorf("machine %d -> %d: %w", mi, peer, err)
				}
			}
			chargePhase(m, &m.breakdown.RemoteTransfer, start)
		}
		for mi, m := range machines {
			start := m.Clock.NowCycles()
			for peer := 0; peer < cfg.Machines; peer++ {
				if peer == mi {
					continue
				}
				payload, err := m.recvFrom[peer].Recv()
				if err != nil {
					return nil, fmt.Errorf("machine %d <- %d: %w", mi, peer, err)
				}
				msgs, err := decodeMsgs(payload)
				if err != nil {
					return nil, err
				}
				for _, msg := range msgs {
					incoming[msg.Dst] += msg.Mass
				}
			}
			chargePhase(m, &m.breakdown.RemoteTransfer, start)
		}

		// Gather + apply: fold incoming mass into new ranks.
		msgsPerMachine := make([]int, cfg.Machines)
		verticesPer := make([]int, cfg.Machines)
		for v := 0; v < g.N; v++ {
			verticesPer[owner[v]]++
			if incoming[v] != 0 {
				msgsPerMachine[owner[v]]++
			}
		}
		delta := 0.0
		for v := 0; v < g.N; v++ {
			next := (1-cfg.Damping)/float64(g.N) + cfg.Damping*incoming[v]
			delta += math.Abs(next - ranks[v])
			ranks[v] = next
			incoming[v] = 0
		}
		for mi, m := range machines {
			start := m.Clock.NowCycles()
			gatherCost := sim.Cycles(float64(msgsPerMachine[mi]) * cfg.GatherCyclesPerMsg)
			m.Probe.Charge(m.Clock, trace.PhaseApp, gatherCost)
			chargePhase(m, &m.breakdown.Gather, start)
			start = m.Clock.NowCycles()
			applyCost := sim.Cycles(float64(verticesPer[mi]) * cfg.ApplyCyclesPerVertex)
			m.Probe.Charge(m.Clock, trace.PhaseApp, applyCost)
			chargePhase(m, &m.breakdown.Apply, start)
		}
		if cfg.Epsilon > 0 && delta < cfg.Epsilon {
			break
		}
	}

	res := &Result{Ranks: ranks, CrossEdges: cross, Iterations: iterationsRun}
	for _, m := range machines {
		if m.Clock.Now() > res.Elapsed {
			res.Elapsed = m.Clock.Now()
		}
		res.Breakdown.Gather += m.breakdown.Gather
		res.Breakdown.Apply += m.breakdown.Apply
		res.Breakdown.Scatter += m.breakdown.Scatter
		res.Breakdown.RemoteTransfer += m.breakdown.RemoteTransfer
	}
	return res, nil
}
