// Package bench implements the paper's evaluation (§VI): one experiment
// per table and figure, each returning structured rows that the mmt-bench
// command and the testing.B harness render. Every experiment runs the real
// functional stack (actual encryption, actual tree verification, actual
// closures over the simulated interconnect) and reads timings off the
// simulated clocks — see DESIGN.md for the calibration and the
// per-experiment index.
package bench

import (
	"fmt"
	"strings"

	"mmt/internal/channel"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// testbed is a pair of MMT nodes joined by an untrusted network, with all
// three channel types available — the standing microbenchmark rig.
type testbed struct {
	net  *netsim.Network
	prof *sim.Profile

	sender, receiver *core.Node
	epS, epR         *netsim.Endpoint

	nonsec *channel.NonSecure
	secure *channel.Secure
	deleg  *channel.Delegation // sender side
	delegR *channel.Delegation // receiver side

	// prS/prR are the per-node trace probes (nil when the testbed runs
	// untraced, which is the default).
	prS, prR *trace.Probe
}

// attachTrace points every component of the rig at sink: the two
// controllers, both endpoints and all channel ends record into the
// "sender" / "receiver" processes. A nil sink is a no-op (nil probes
// disable tracing everywhere).
func (tb *testbed) attachTrace(sink *trace.Sink) {
	tb.prS, tb.prR = sink.Probe("sender"), sink.Probe("receiver")
	tb.sender.Controller().SetTrace(tb.prS)
	tb.receiver.Controller().SetTrace(tb.prR)
	tb.epS.SetTrace(tb.prS)
	tb.epR.SetTrace(tb.prR)
	tb.nonsec.SetTrace(tb.prS)
	tb.secure.SetTrace(tb.prS)
	tb.deleg.SetTrace(tb.prS)
	tb.delegR.SetTrace(tb.prR)
}

// newTestbed builds the rig with `regions` buffer regions per node.
func newTestbed(prof *sim.Profile, geo tree.Geometry, regions int) (*testbed, error) {
	tb := &testbed{net: netsim.NewNetwork(prof.NetLatency), prof: prof}
	mk := func(name string, id int) (*core.Node, *netsim.Endpoint, error) {
		h, err := channel.NewHost(channel.SchemeDelegation, name, id, regions, geo, prof, nil)
		if err != nil {
			return nil, nil, err
		}
		ep, err := tb.net.Attach(name, h.Clock)
		return h.Node, ep, err
	}
	var err error
	if tb.sender, tb.epS, err = mk("sender", 1); err != nil {
		return nil, err
	}
	if tb.receiver, tb.epR, err = mk("receiver", 2); err != nil {
		return nil, err
	}
	key := crypt.KeyFromBytes([]byte("bench-key"))
	pool := make([]int, regions)
	for i := range pool {
		pool[i] = i
	}
	tb.nonsec = channel.NewNonSecure(tb.epS, "receiver", prof)
	if tb.secure, err = channel.NewSecure(tb.epS, "receiver", prof, key); err != nil {
		return nil, err
	}
	tb.deleg = channel.NewDelegation(tb.epS, "receiver", prof, tb.sender, core.NewConn(key, 0), pool)
	tb.delegR = channel.NewDelegation(tb.epR, "sender", prof, tb.receiver, core.NewConn(key, 0), append([]int(nil), pool...))
	return tb, nil
}

// secureReceiver builds the matching receive side of the secure channel.
func (tb *testbed) secureReceiver() (*channel.Secure, error) {
	sec, err := channel.NewSecure(tb.epR, "sender", tb.prof, crypt.KeyFromBytes([]byte("bench-key")))
	if err != nil {
		return nil, err
	}
	sec.SetTrace(tb.prR)
	return sec, nil
}

// payload builds a deterministic test payload.
func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + 17)
	}
	return p
}

// renderTable prints rows as a GitHub pipe table under a "## title"
// line: the text mmt-bench prints and EXPERIMENTS.md holds verbatim.
func renderTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", title)
	line := func(cells []string) {
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	line(header)
	b.WriteString(strings.Repeat("|---", len(header)) + "|\n")
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// fmtSize prints a byte count the way the paper does (2K, 2M, ...).
func fmtSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
