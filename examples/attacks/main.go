// Attacks: the threat model of §III-B made concrete. A man-in-the-middle
// sits on the interconnect between two machines and tries, in turn, to
// spy on, tamper with, replay and re-order MMT closures — and, for
// contrast, succeeds effortlessly against the unprotected baseline
// channel the paper's Figure 13 compares against. It exits non-zero if
// the baseline resists, or if the delegation protocol lets through any
// attack but the passive spy or lets the spy read plaintext.
//
//	go run ./examples/attacks
package main

import (
	"bytes"
	"fmt"
	"log"

	"mmt/internal/channel"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/tree"
)

var geo = tree.ForLevels(2) // 64K regions keep the demo snappy

func buildNode(net *netsim.Network, name string, id int) (*core.Node, *netsim.Endpoint) {
	h, err := channel.NewHost(channel.SchemeDelegation, name, id, 8, geo, sim.Gem5Profile(), nil)
	if err != nil {
		log.Fatal(err)
	}
	ep, err := net.Attach(name, h.Clock)
	if err != nil {
		log.Fatal(err)
	}
	return h.Node, ep
}

func main() {
	secret := []byte("account table fragment: alice=9000 bob=17")

	fmt.Println("== against the unprotected baseline ==")
	{
		net := netsim.NewNetwork(0)
		_, epA := buildNode(net, "a", 1)
		_, epB := buildNode(net, "b", 2)
		spy := &netsim.Spy{}
		net.SetInterposer(netsim.Chain{spy, &netsim.Tamperer{Kind: netsim.KindData, Offset: 30}})
		s := channel.NewNonSecure(epA, "b", sim.Gem5Profile())
		r := channel.NewNonSecure(epB, "a", sim.Gem5Profile())
		if err := s.Send(secret); err != nil {
			log.Fatal(err)
		}
		got, err := r.Recv()
		if err != nil {
			log.Fatal(err)
		}
		leaked, lied := bytes.Contains(spy.Captured[0], secret[:16]), !bytes.Equal(got, secret)
		fmt.Printf("spy read the plaintext off the wire: %v\n", leaked)
		fmt.Printf("receiver accepted silently tampered data: %v (got %q)\n\n", lied, got)
		if !leaked || !lied {
			log.Fatal("the unprotected baseline resisted an attack it has no defence against")
		}
	}

	fmt.Println("== against MMT closure delegation ==")
	net := netsim.NewNetwork(0)
	nodeA, epA := buildNode(net, "a", 1)
	nodeB, epB := buildNode(net, "b", 2)
	key := crypt.KeyFromBytes([]byte("demo-link"))
	pool := []int{0, 1, 2, 3}
	mk := func(ep *netsim.Endpoint, peer string, n *core.Node) *channel.Delegation {
		return channel.NewDelegation(ep, peer, sim.Gem5Profile(), n, core.NewConn(key, 0), append([]int(nil), pool...))
	}
	send := mk(epA, "b", nodeA)
	recv := mk(epB, "a", nodeB)

	// run reports whether the receiver rejected the adversary's traffic.
	run := func(name string, adversary netsim.Interposer, sends int) bool {
		net.SetInterposer(adversary)
		for i := 0; i < sends; i++ {
			if err := send.Send(secret); err != nil {
				log.Fatalf("%s: send: %v", name, err)
			}
		}
		var firstErr error
		for i := 0; i < sends+1; i++ { // +1 covers injected replays
			r, err := recv.Recv()
			if err != nil {
				if err == channel.ErrEmpty {
					break
				}
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if _, err := r.Payload(); err != nil {
				log.Fatalf("%s: payload: %v", name, err)
			}
			if err := r.Release(); err != nil {
				log.Fatalf("%s: release: %v", name, err)
			}
		}
		net.SetInterposer(nil)
		send.DrainAcks() // observe nacks, recover buffers
		if firstErr != nil {
			fmt.Printf("%-28s REJECTED: %v\n", name, firstErr)
		} else {
			fmt.Printf("%-28s delivered intact\n", name)
		}
		return firstErr != nil
	}

	spy := &netsim.Spy{}
	run("passive spy", spy, 1)
	leaked := false
	for _, p := range spy.Captured {
		if bytes.Contains(p, secret[:16]) {
			leaked = true
		}
	}
	fmt.Printf("%-28s plaintext on the wire: %v\n", "  (what the spy saw)", leaked)
	delivered := 0
	for _, a := range []struct {
		name      string
		adversary netsim.Interposer
		sends     int
	}{
		{"tampered ciphertext", &netsim.Tamperer{Kind: netsim.KindClosure, Offset: -5}, 1},
		{"tampered sealed root", &netsim.Tamperer{Kind: netsim.KindClosure, Offset: 30}, 1},
		{"replayed closure", &netsim.Replayer{Kind: netsim.KindClosure}, 2},
		{"re-ordered closures", &netsim.Reorderer{Kind: netsim.KindClosure}, 2},
	} {
		if !run(a.name, a.adversary, a.sends) {
			delivered++
		}
	}
	if leaked || delivered > 0 {
		log.Fatalf("the delegation protocol leaked plaintext (%v) or delivered %d attack(s)", leaked, delivered)
	}

	fmt.Println("\nThe baseline leaked and lied; the delegation protocol rejected everything.")
}
