package main

// layers.go times every rung of every layer: each probe builds that
// layer's state through the layer's own exported constructors (as
// cmd/mmt-bench/wallclock.go does for the controller), drives it with the
// seeded inputs, checks what comes back, and records a span per sample.
// Nanosecond rungs are sampled in batches of 4096 calls with the loop
// inside the span; millisecond rungs one call per span.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mmt"
	"mmt/internal/attest"
	"mmt/internal/channel"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/forest"
	"mmt/internal/gf"
	"mmt/internal/mem"
	"mmt/internal/monitor"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/store"
	"mmt/internal/tree"
)

// sink keeps results alive so the compiler cannot drop a timed call.
var sink uint64

// sampleCounts is how many spans a rung records: (nanosecond rungs,
// millisecond rungs).
func sampleCounts(e *env) (ns, ms int) {
	if e.quick {
		return 2, 1
	}
	return 24, 8
}

// check counts one output check in the report.
func (r *report) check(ok bool, what string) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.notes = append(r.notes, "check failed: "+what)
	}
}

// probeLayers runs every layer's probe. Probes run one after another, each
// dropping its state before the next, so they do not compete for memory.
func probeLayers(rec *recorder, e *env, rep *report) error {
	probes := []func(*recorder, *env, *report) error{
		probeBench, probeGF, probeCrypt, probeTree, probeMem, probeEngine, probeCore,
		probeNetsim, probeChannel, probeMonitor, probeAPI, probePersist, probeStore, probeTraceCost,
	}
	for _, p := range probes {
		if err := p(rec, e, rep); err != nil {
			return err
		}
		runtime.GC()
	}
	return nil
}

// defaultGeometry is the default cluster's 3-level, 2 MB tree.
func defaultGeometry() tree.Geometry { return tree.ForLevels(3) }

// newController builds a controller over regions regions, as
// Cluster.AddMachine does.
func newController(geo tree.Geometry, regions int) (*engine.Controller, error) {
	pm := mem.New(mem.Config{Size: regions * geo.DataSize(), RegionSize: geo.DataSize(), MetaPerRegion: geo.MetaSize()})
	return engine.New(pm, geo, nil, sim.Gem5Profile())
}

func probeKey(e *env, label string) crypt.Key {
	return crypt.KeyFromBytes(fmt.Appendf(nil, "benchmark-%s-%d", label, e.seed))
}

// ---------------------------------------------------------------------------
// bench: what the measurement itself costs.

func probeBench(rec *recorder, e *env, _ *report) error {
	ns, _ := sampleCounts(e)
	for s := 0; s < ns; s++ {
		if err := rec.time("bench.timer_ns", lineBatch, func() error {
			for i := 0; i < lineBatch; i++ {
				sink += uint64(time.Since(time.Now()))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// gf

// pathPolys returns three polynomials shaped like the counter words of a
// default path's nodes: arity 16, 32 and 64 pack into 5, 9 and 17 words.
func pathPolys(g *rng) [][]uint64 {
	polys := [][]uint64{make([]uint64, 5), make([]uint64, 9), make([]uint64, 17)}
	for _, p := range polys {
		for i := range p {
			p[i] = g.next()
		}
	}
	return polys
}

func probeGF(rec *recorder, e *env, rep *report) error {
	ns, _ := sampleCounts(e)
	g := newRNG(e.seed, "gf")
	x := g.next() | 1
	m := gf.NewMulx(x)
	polys := pathPolys(g)
	out := make([]uint64, len(polys))
	m.EvalBatch(polys, out)
	for j, p := range polys {
		rep.check(out[j] == m.Eval(p) && out[j] == gf.Eval(p, x), "gf: EvalBatch, Mulx.Eval and gf.Eval disagree")
	}
	for s := 0; s < ns; s++ {
		c := g.next()
		if err := rec.time("gf.mul_ns", lineBatch, func() error {
			acc := c
			for i := 0; i < lineBatch; i++ {
				acc = m.Mul(acc) ^ c
			}
			sink ^= acc
			return nil
		}); err != nil {
			return err
		}
		if err := rec.time("gf.eval_ns", lineBatch, func() error {
			var acc uint64
			for i := 0; i < lineBatch; i++ {
				polys[0][0] = acc
				acc ^= m.Eval(polys[0]) ^ m.Eval(polys[1]) ^ m.Eval(polys[2])
			}
			sink ^= acc
			return nil
		}); err != nil {
			return err
		}
		if err := rec.time("gf.evalbatch_ns", lineBatch, func() error {
			for i := 0; i < lineBatch; i++ {
				polys[0][0] = out[0]
				m.EvalBatch(polys, out)
			}
			sink ^= out[0]
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// crypt

func probeCrypt(rec *recorder, e *env, rep *report) error {
	ns, _ := sampleCounts(e)
	g := newRNG(e.seed, "crypt")
	eng := crypt.NewEngine(probeKey(e, "crypt"))
	scr := &crypt.Scratch{}
	const guaddr = 0x3000
	geo := defaultGeometry()
	lines := geo.Lines()

	// One path's worth of node-MAC jobs, top level first.
	polys := pathPolys(g)
	jobs := make([]crypt.NodeMACJob, len(polys))
	for l, p := range polys {
		jobs[l] = crypt.NodeMACJob{NodeID: uint32(l)<<24 | uint32(l), ParentCounter: g.next(), Arity: uint64(geo.Arities[l]), Packed: p}
	}
	out := make([]uint64, len(jobs))
	eng.NodeMACBatch(guaddr, jobs, out, scr)
	for i, j := range jobs {
		rep.check(out[i] == eng.NodeMAC(guaddr, j.NodeID, j.ParentCounter, j.Arity, j.Packed), "crypt: NodeMACBatch differs from NodeMAC")
	}

	// Planes laid out like the engine's: ciphertext, per-line pad and MAC
	// bases, and cached pads, all indexed by line.
	ct := make([]byte, geo.DataSize())
	g.fill(ct)
	pads := make([]byte, geo.DataSize())
	g.fill(pads)
	padBase := make([]byte, lines*crypt.MaskBaseSize)
	macBase := make([]byte, lines*crypt.MaskBaseSize)
	for ln := 0; ln < lines; ln++ {
		eng.MaskBaseInto(guaddr, uint32(ln), crypt.DomainPad, padBase[ln*crypt.MaskBaseSize:], scr)
		eng.MaskBaseInto(guaddr, uint32(ln), crypt.DomainLineMAC, macBase[ln*crypt.MaskBaseSize:], scr)
	}
	tw := crypt.Tweak{GUAddr: guaddr, Line: 9, Counter: 4}
	rep.check(eng.LineMACBuf(tw, ct[9*lineSize:10*lineSize], scr) == eng.LineMAC(tw, ct[9*lineSize:10*lineSize]), "crypt: LineMACBuf differs from LineMAC")
	plain := append([]byte(nil), ct[:lineSize]...)
	eng.XORPad(tw, plain)
	eng.XORPad(tw, plain)
	rep.check(bytes.Equal(plain, ct[:lineSize]), "crypt: XORPad is not an involution")

	seq := newLineSeq(e.seed, false)
	dst := make([]byte, lineSize)
	var acc uint64
	for s := 0; s < ns; s++ {
		seq.next(lines)
		ctr := g.next()
		line := func(ln int32) []byte { return ct[int(ln)*lineSize : (int(ln)+1)*lineSize] }
		// Each loop is written out: an indirect call per op would cost as
		// much as the cheapest of these kernels.
		if err := inOrder(
			rec.step("crypt.nodehashbatch_ns", lineBatch, func() error {
				for range seq.lines {
					eng.NodeHashBatch(jobs, out, scr)
				}
				return nil
			}),
			rec.step("crypt.nodemacbatch_ns", lineBatch, func() error {
				for range seq.lines {
					eng.NodeMACBatch(guaddr, jobs, out, scr)
				}
				return nil
			}),
			rec.step("crypt.nodehash_ns", lineBatch, func() error {
				for range seq.lines {
					for i := range jobs {
						acc ^= eng.NodeHash(jobs[i].ParentCounter, jobs[i].Arity, jobs[i].Packed)
					}
				}
				return nil
			}),
			rec.step("crypt.linehash_ns", lineBatch, func() error {
				for _, ln := range seq.lines {
					acc ^= eng.LineHash(line(ln), scr)
				}
				return nil
			}),
			rec.step("crypt.maskfrombase_ns", lineBatch, func() error {
				for _, ln := range seq.lines {
					acc ^= eng.MaskFromBase(macBase[int(ln)*crypt.MaskBaseSize:], ctr, scr)
				}
				return nil
			}),
			rec.step("crypt.padline_ns", lineBatch, func() error {
				for _, ln := range seq.lines {
					acc ^= uint64(eng.PadLineFromBase(padBase[int(ln)*crypt.MaskBaseSize:], ctr, scr)[0])
				}
				return nil
			}),
			rec.step("crypt.xorline_ns", lineBatch, func() error {
				for _, ln := range seq.lines {
					crypt.XORLine(dst, line(ln), pads[int(ln)*lineSize:(int(ln)+1)*lineSize])
				}
				return nil
			}),
		); err != nil {
			return err
		}
		// The whole-region sweeps of Enable and Install walk lines in order.
		base := (s * lineBatch) % lines
		if err := rec.time("crypt.linemacbuf_ns", lineBatch, func() error {
			for ln := base; ln < base+lineBatch; ln++ {
				acc ^= eng.LineMACBuf(crypt.Tweak{GUAddr: guaddr, Line: uint32(ln), Counter: ctr}, ct[ln*lineSize:(ln+1)*lineSize], scr)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := rec.time("crypt.xorpad_ns", lineBatch, func() error {
			for ln := base; ln < base+lineBatch; ln++ {
				eng.XORPad(crypt.Tweak{GUAddr: guaddr, Line: uint32(ln), Counter: ctr}, ct[ln*lineSize:(ln+1)*lineSize])
			}
			return nil
		}); err != nil {
			return err
		}
	}
	sink ^= acc ^ uint64(dst[0])
	return nil
}

// ---------------------------------------------------------------------------
// tree

func probeTree(rec *recorder, e *env, rep *report) error {
	ns, ms := sampleCounts(e)
	g := newRNG(e.seed, "tree")
	eng := crypt.NewEngine(probeKey(e, "tree"))
	const guaddr = 0x2000

	verify := func(name string, geo tree.Geometry, seq *lineSeq) (*tree.Tree, error) {
		tr, err := tree.New(geo, eng, guaddr)
		if err != nil {
			return nil, err
		}
		lines := geo.Lines()
		for ln := 0; ln < lines; ln += geo.Arities[geo.Levels()-1] { // warm the per-node mask cache
			if err := tr.VerifyPath(eng, guaddr, ln); err != nil {
				return nil, err
			}
		}
		for s := 0; s < ns; s++ {
			seq.next(lines)
			if err := rec.time(name, lineBatch, func() error {
				for _, ln := range seq.lines {
					if err := tr.VerifyPath(eng, guaddr, int(ln)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}
		return tr, nil
	}
	if _, err := verify("tree.verifypath_h2_ns", tree.ForLevels(2), newLineSeq(e.seed, false)); err != nil {
		return err
	}
	if _, err := verify("tree.verifypath_h4_ns", tree.ForLevels(4), newLineSeq(e.seed, false)); err != nil {
		return err
	}
	geo := defaultGeometry()
	tr, err := verify("tree.verifypath_ns", geo, newLineSeq(e.seed, false))
	if err != nil {
		return err
	}

	seq := newLineSeq(e.seed, true)
	for s := 0; s < ns; s++ {
		seq.next(geo.Lines())
		if err := rec.time("tree.update_ns", lineBatch, func() error {
			for _, ln := range seq.lines {
				sink ^= tr.Update(eng, guaddr, int(ln)).LeafCounter
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for s := 0; s < ms; s++ {
		var blob []byte
		var back *tree.Tree
		if err := inOrder(
			rec.step("tree.rehashall_ms", 1, func() error { tr.RehashAll(eng, guaddr); return nil }),
			rec.step("tree.verifyall_ms", 1, func() error { return tr.VerifyAll(eng, guaddr) }),
			rec.step("tree.serialize_us", 1, func() error { blob = tr.Serialize(); return nil }),
			rec.step("tree.deserialize_us", 1, func() (err error) { back, err = tree.Deserialize(geo, blob); return err }),
		); err != nil {
			return err
		}
		back.SetRootCounter(tr.RootCounter())
		rep.check(back.VerifyAll(eng, guaddr) == nil, "tree: a deserialized tree does not verify")
	}
	// Negative control: one flipped MAC bit must fail the path through it.
	line := g.intn(geo.Lines())
	leaf := tr.Node(geo.Levels()-1, line/geo.Arities[geo.Levels()-1])
	leaf.SetMAC(leaf.MAC() ^ 1)
	rep.check(errors.Is(tr.VerifyPath(eng, guaddr, line), tree.ErrIntegrity), "tree: a tampered node MAC was not detected")
	leaf.SetMAC(leaf.MAC() ^ 1)
	rep.check(tr.VerifyPath(eng, guaddr, line) == nil, "tree: restored node MAC does not verify")
	return nil
}

// ---------------------------------------------------------------------------
// mem

func probeMem(rec *recorder, e *env, rep *report) error {
	_, ms := sampleCounts(e)
	geo := defaultGeometry()
	pm := mem.New(mem.Config{Size: geo.DataSize(), RegionSize: geo.DataSize(), MetaPerRegion: geo.MetaSize()})
	data := make([]byte, geo.DataSize())
	newRNG(e.seed, "mem").fill(data)
	base := pm.RegionBase(0)
	for s := 0; s < 2*ms; s++ {
		var got []byte
		if err := inOrder(
			rec.step("mem.region_write_us", 1, func() error { pm.Write(base, data); return nil }),
			rec.step("mem.region_copy_us", 1, func() error { got = pm.Read(base, len(data)); return nil }),
		); err != nil {
			return err
		}
		rep.check(bytes.Equal(got, data), "mem: region read-back differs")
	}
	return nil
}

// ---------------------------------------------------------------------------
// engine

func probeEngine(rec *recorder, e *env, rep *report) error {
	ns, ms := sampleCounts(e)
	geo := defaultGeometry()
	lines := geo.Lines()
	ctl, err := newController(geo, 2)
	if err != nil {
		return err
	}
	key := probeKey(e, "engine")
	if err := ctl.Enable(0, key, 0x1000, 0); err != nil {
		return err
	}
	want := make([]byte, geo.DataSize())
	newRNG(e.seed, "fill").fill(want)
	pool := make([]byte, geo.DataSize())
	newRNG(e.seed, "pool").fill(pool)
	dst := make([]byte, lineSize)
	for ln := 0; ln < lines; ln++ {
		if err := ctl.Write(0, ln, want[ln*lineSize:(ln+1)*lineSize]); err != nil {
			return err
		}
	}
	ok := true
	for ln := 0; ln < lines; ln++ { // checks the fill and warms the planes
		if err := ctl.ReadInto(0, ln, dst); err != nil {
			return err
		}
		ok = ok && bytes.Equal(dst, want[ln*lineSize:(ln+1)*lineSize])
	}
	rep.check(ok, "engine: fill read-back differs")

	seq := newLineSeq(e.seed, false)
	stats0, mem0 := ctl.Stats(), readCounters()
	for s := 0; s < ns; s++ {
		seq.next(lines)
		if err := rec.time("engine.readinto_ns", lineBatch, func() error {
			for _, ln := range seq.lines {
				if err := ctl.ReadInto(0, int(ln), dst); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	stats1, mem1 := ctl.Stats(), readCounters()
	ops := float64(ns * lineBatch)
	rep.set("engine.allocs_per_read", float64(mem1.mallocs-mem0.mallocs)/ops)
	hits, misses := float64(stats1.NodeHits-stats0.NodeHits), float64(stats1.NodeMisses-stats0.NodeMisses)
	rep.set("engine.node_hit_ratio", hits/(hits+misses))

	wseq := newLineSeq(e.seed, true)
	mem0 = readCounters()
	for s := 0; s < ns; s++ {
		wseq.next(lines)
		if err := rec.time("engine.write_ns", lineBatch, func() error {
			for j, ln := range wseq.lines {
				src := int(wseq.srcs[j]) * lineSize
				if err := ctl.Write(0, int(ln), pool[src:src+lineSize]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	rep.set("engine.allocs_per_write", float64(readCounters().mallocs-mem0.mallocs)/ops)

	// The cold path and the migration halves, on a second region.
	for s := 0; s < ms; s++ {
		guaddr := uint64(0x5000 + s)
		var treeBytes, data []byte
		var macs []uint64
		var root, gu uint64
		if err := inOrder(
			rec.step("engine.enable_ms", 1, func() error { return ctl.Enable(1, key, guaddr, 0) }),
			rec.step("engine.write_fresh_ns", lines, func() error {
				for ln := 0; ln < lines; ln++ {
					if err := ctl.Write(1, ln, pool[ln*lineSize:(ln+1)*lineSize]); err != nil {
						return err
					}
				}
				return nil
			}),
			rec.step("engine.readinto_fresh_ns", lines, func() error {
				for ln := 0; ln < lines; ln++ {
					if err := ctl.ReadInto(1, ln, dst); err != nil {
						return err
					}
				}
				return nil
			}),
			rec.step("engine.export_ms", 1, func() (err error) {
				treeBytes, data, macs, root, gu, err = ctl.Export(1)
				return err
			}),
			rec.step("engine.invalidate_us", 1, func() error { ctl.Invalidate(1); return nil }),
			rec.step("engine.install_ms", 1, func() error {
				return ctl.Install(1, key, gu, root, treeBytes, data, macs, engine.ModeReadWrite)
			}),
		); err != nil {
			return err
		}
		ln := (s * 4099) % lines
		err := ctl.ReadInto(1, ln, dst)
		rep.check(err == nil && bytes.Equal(dst, pool[ln*lineSize:(ln+1)*lineSize]), "engine: installed region reads back wrong")
		// Negative control: a flipped ciphertext bit must fail the install.
		ctl.Invalidate(1)
		data[ln*lineSize] ^= 1
		rep.check(errors.Is(ctl.Install(1, key, gu, root, treeBytes, data, macs, engine.ModeReadWrite), engine.ErrIntegrity),
			"engine: a tampered closure was installed")
	}
	return nil
}

// ---------------------------------------------------------------------------
// core

func probeCore(rec *recorder, e *env, rep *report) error {
	ns, ms := sampleCounts(e)
	geo := defaultGeometry()
	lines := geo.Lines()
	node := func(id forest.NodeID) (*core.Node, error) {
		ctl, err := newController(geo, 2)
		if err != nil {
			return nil, err
		}
		return core.NewNode(id, ctl), nil
	}
	a, err := node(1)
	if err != nil {
		return err
	}
	b, err := node(2)
	if err != nil {
		return err
	}
	key := probeKey(e, "core")
	connA, connB := core.NewConn(key, 0), core.NewConn(key, 0)
	want := make([]byte, geo.DataSize())
	newRNG(e.seed, "fill").fill(want)
	pool := make([]byte, geo.DataSize())
	newRNG(e.seed, "pool").fill(pool)

	m0, err := a.Acquire(0, key, connA.NextCounter())
	if err != nil {
		return err
	}
	if err := m0.WriteBytes(0, want); err != nil {
		return err
	}
	got, err := m0.ReadBytes(0, len(want)) // checks the fill and warms the planes
	if err != nil {
		return err
	}
	rep.check(bytes.Equal(got, want), "core: fill read-back differs")

	seq, wseq := newLineSeq(e.seed, false), newLineSeq(e.seed, true)
	for s := 0; s < ns; s++ {
		seq.next(lines)
		if err := rec.time("core.read_ns", lineBatch, func() error {
			for _, ln := range seq.lines {
				line, err := m0.Read(int(ln))
				if err != nil {
					return err
				}
				sink ^= uint64(line[0])
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for s := 0; s < ns; s++ {
		wseq.next(lines)
		if err := rec.time("core.write_ns", lineBatch, func() error {
			for j, ln := range wseq.lines {
				src := int(wseq.srcs[j]) * lineSize
				if err := m0.Write(int(ln), pool[src:src+lineSize]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	for s := 0; s < ms; s++ {
		m, err := a.Acquire(1, key, connA.NextCounter())
		if err != nil {
			return err
		}
		ln := (s * 4099) % lines
		if err := m.Write(ln, pool[:lineSize]); err != nil {
			return err
		}
		rm, err := b.Expect(0, connB)
		if err != nil {
			return err
		}
		var closure *core.Closure
		var wire []byte
		if err := inOrder(
			rec.step("core.beginsend_ms", 1, func() (err error) { closure, err = m.BeginSend(connA, core.OwnershipTransfer); return err }),
			rec.step("core.encode_ms", 1, func() error { wire = closure.Encode(); return nil }),
			rec.step("core.decode_ms", 1, func() error { _, err := core.DecodeClosure(wire); return err }),
			rec.step("core.accept_ms", 1, func() error { return rm.Accept(connB, wire) }),
			func() error { return m.CompleteSend(true) },
		); err != nil {
			return err
		}
		rep.set("core.wire_bytes", float64(len(wire)))
		line, err := rm.Read(ln)
		rep.check(err == nil && bytes.Equal(line, pool[:lineSize]), "core: accepted closure reads back wrong")
		// Negative control: the same closure again is a replay.
		again, err := b.Expect(1, connB)
		if err != nil {
			return err
		}
		rep.check(errors.Is(again.Accept(connB, wire), core.ErrReplay), "core: a replayed closure was accepted")
		if err := errors.Join(again.Cancel(), rm.Reclaim()); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// netsim

func probeNetsim(rec *recorder, e *env, rep *report) error {
	_, ms := sampleCounts(e)
	net := netsim.NewNetwork(0)
	a, err := net.Attach("a", sim.NewClock(sim.DefaultFreqHz))
	if err != nil {
		return err
	}
	b, err := net.Attach("b", sim.NewClock(sim.DefaultFreqHz))
	if err != nil {
		return err
	}
	// A closure-sized frame, as Monitor.SendPMO puts on the wire.
	frame := make([]byte, int(rep.Metrics["core.wire_bytes"].Value)+64)
	newRNG(e.seed, "netsim").fill(frame)
	for s := 0; s < 2*ms; s++ {
		var got netsim.Message
		var ok bool
		if err := rec.time("netsim.send_recv_us", 1, func() error {
			a.Send("b", netsim.KindClosure, frame)
			got, ok = b.Recv()
			return nil
		}); err != nil {
			return err
		}
		rep.check(ok && bytes.Equal(got.Payload, frame), "netsim: frame arrived changed")
	}
	return nil
}

// ---------------------------------------------------------------------------
// channel: the paper's comparison, in host time. Not on the public API's
// path; internal/mapreduce and internal/graph are its callers.

func probeChannel(rec *recorder, e *env, rep *report) error {
	_, ms := sampleCounts(e)
	geo := defaultGeometry()
	prof := sim.Gem5Profile()
	key := probeKey(e, "channel")
	net := netsim.NewNetwork(0)
	side := func(name string, id forest.NodeID) (*core.Node, *netsim.Endpoint, error) {
		ctl, err := newController(geo, 2)
		if err != nil {
			return nil, nil, err
		}
		ep, err := net.Attach(name, ctl.Clock())
		return core.NewNode(id, ctl), ep, err
	}
	nodeS, epS, err := side("sender", 1)
	if err != nil {
		return err
	}
	nodeR, epR, err := side("receiver", 2)
	if err != nil {
		return err
	}
	send := channel.NewDelegation(epS, "receiver", prof, nodeS, core.NewConn(key, 0), []int{0, 1})
	recv := channel.NewDelegation(epR, "sender", prof, nodeR, core.NewConn(key, 0), []int{0, 1})
	payload := make([]byte, send.Capacity())
	newRNG(e.seed, "channel").fill(payload)
	for s := 0; s < ms; s++ {
		var got *channel.Received
		if err := rec.time("channel.delegation_ms", 1, func() (err error) {
			if err := send.Send(payload); err != nil {
				return err
			}
			got, err = recv.Recv()
			return err
		}); err != nil {
			return err
		}
		data, err := got.Payload()
		rep.check(err == nil && bytes.Equal(data, payload), "channel: delegated payload differs")
		if err := errors.Join(got.Release(), send.DrainAcks()); err != nil {
			return err
		}
	}

	// The secure channel needs no protected memory: two more endpoints.
	epA, err := net.Attach("secure-a", sim.NewClock(prof.FreqHz))
	if err != nil {
		return err
	}
	epB, err := net.Attach("secure-b", sim.NewClock(prof.FreqHz))
	if err != nil {
		return err
	}
	secA, err := channel.NewSecure(epA, "secure-b", prof, key)
	if err != nil {
		return err
	}
	secB, err := channel.NewSecure(epB, "secure-a", prof, key)
	if err != nil {
		return err
	}
	for s := 0; s < ms; s++ {
		var data []byte
		if err := rec.time("channel.secure_ms", 1, func() (err error) {
			if err := secA.Send(payload); err != nil {
				return err
			}
			data, err = secB.Recv()
			return err
		}); err != nil {
			return err
		}
		rep.check(bytes.Equal(data, payload), "channel: secure payload differs")
	}
	return nil
}

// ---------------------------------------------------------------------------
// monitor, attest

func probeMonitor(rec *recorder, e *env, rep *report) error {
	ns, ms := sampleCounts(e)
	geo := defaultGeometry()
	mfr, err := attest.NewManufacturer()
	if err != nil {
		return err
	}
	authority, err := attest.NewAuthority(mfr.PublicKey())
	if err != nil {
		return err
	}
	measurement := attest.MeasureSoftware([]byte("mmt-monitor-v1"))
	authority.AllowMeasurement(measurement)
	net := netsim.NewNetwork(0)
	// boot provisions and attests one machine, as Cluster.AddMachine does.
	boot := func(name string, regions int) (*monitor.Monitor, error) {
		ctl, err := newController(geo, regions)
		if err != nil {
			return nil, err
		}
		var mon *monitor.Monitor
		if err := rec.time("attest.provision_boot_ms", 1, func() error {
			machine, err := mfr.Provision(name)
			if err != nil {
				return err
			}
			mon = monitor.New(machine, measurement, authority.PublicKey(), ctl)
			return mon.Boot(authority)
		}); err != nil {
			return nil, err
		}
		return mon, mon.AttachNetwork(net, name)
	}
	a, err := boot("alice", 8)
	if err != nil {
		return err
	}
	b, err := boot("bob", 8)
	if err != nil {
		return err
	}
	for s := 0; s < ms; s++ { // more attestation samples on throw-away machines
		if _, err := boot(fmt.Sprintf("spare-%d", s), 1); err != nil {
			return err
		}
	}
	ea, eb := a.CreateEnclave("producer", measurement), b.CreateEnclave("consumer", measurement)
	var connID string
	for s := 0; s < min(ms, 3); s++ { // every connection pins a receive region on each side
		if err := rec.time("monitor.connect_ms", 1, func() (err error) {
			connID, err = monitor.Connect(a, ea.ID, b, eb.ID, 0)
			return err
		}); err != nil {
			return err
		}
	}
	conn, ok := a.Connection(connID)
	if !ok {
		return errors.New("monitor: connection missing after Connect")
	}
	line := make([]byte, lineSize)
	newRNG(e.seed, "monitor").fill(line)

	for s := 0; s < ms; s++ {
		var p *monitor.PMO
		if err := rec.time("monitor.alloc_acquire_ms", 1, func() (err error) {
			if p, err = a.AllocPMO(ea.ID); err != nil {
				return err
			}
			_, err = a.AcquireMMT(ea.ID, p.Cap, conn.Conn().Key(), conn.Conn().NextCounter())
			return err
		}); err != nil {
			return err
		}
		if err := p.MMT().Write(s, line); err != nil {
			return err
		}
		if err := inOrder(
			rec.step("monitor.sendpmo_ms", 1, func() error { return a.SendPMO(ea.ID, p.Cap, connID, core.OwnershipTransfer) }),
			rec.step("monitor.pump_accept_ms", 1, b.PumpAll),
			rec.step("monitor.pump_ack_us", 1, a.PumpAll),
		); err != nil {
			return err
		}
		got, ok := b.TakeReceived(connID)
		if !ok {
			return errors.New("monitor: nothing received")
		}
		data, err := got.MMT().Read(s)
		rep.check(err == nil && bytes.Equal(data, line), "monitor: delegated line differs")
		if err := b.FreePMO(got.Owner, got.Cap); err != nil {
			return err
		}
	}
	kept, err := a.AllocPMO(ea.ID)
	if err != nil {
		return err
	}
	cap0 := kept.Cap
	for s := 0; s < ns; s++ {
		if err := rec.time("monitor.pmoof_ns", lineBatch, func() error {
			for i := 0; i < lineBatch; i++ {
				p, err := a.PMOOf(ea.ID, cap0)
				if err != nil {
					return err
				}
				sink ^= uint64(p.Region)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	_, err = a.PMOOf(eb.ID+7, cap0)
	rep.check(errors.Is(err, monitor.ErrNotOwner), "monitor: a non-owner resolved a capability")
	return nil
}

// ---------------------------------------------------------------------------
// api: the public surface, rung by rung.

// counter is an interposer that counts messages without touching them.
type counter struct{ n int }

func (c *counter) Intercept(m mmt.WireMessage) []mmt.WireMessage {
	c.n++
	return []mmt.WireMessage{m}
}

func probeAPI(rec *recorder, e *env, rep *report) error {
	ns, ms := sampleCounts(e)
	r, err := newRig()
	if err != nil {
		return err
	}
	defer r.close() // no store, no debug server: nothing to report
	buf, shadow, err := r.filledBuffer(newRNG(e.seed, "fill"))
	if err != nil {
		return err
	}
	lines := len(shadow) / lineSize
	pool := make([]byte, len(shadow))
	newRNG(e.seed, "pool").fill(pool)

	read := func(name string, seq *lineSeq, window int) error {
		for s := 0; s < ns; s++ {
			seq.next(window)
			bad := 0
			if err := rec.time(name, lineBatch, func() error {
				for _, ln := range seq.lines {
					off := int(ln) * lineSize
					got, err := buf.Read(off, lineSize)
					if err != nil || !bytes.Equal(got, shadow[off:off+lineSize]) {
						bad++
					}
				}
				return nil
			}); err != nil {
				return err
			}
			rep.check(bad == 0, name+": a line read back wrong")
		}
		return nil
	}
	if err := read("api.read_ns", newLineSeq(e.seed, false), lines); err != nil {
		return err
	}
	// A 64-line window fits every cache: equal to read_ns means the read
	// path is compute-bound, far lower means it waits for memory.
	if err := read("api.read_hotset_ns", newLineSeq(e.seed, false), 64); err != nil {
		return err
	}
	write := func(name string, at, n int) error {
		seq := newLineSeq(e.seed, true)
		for s := 0; s < ns; s++ {
			seq.next(lines)
			if err := rec.time(name, lineBatch, func() error {
				for j, ln := range seq.lines {
					src := int(seq.srcs[j]) * lineSize
					if err := buf.Write(int(ln)*lineSize+at, pool[src:src+n]); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			for j, ln := range seq.lines {
				src := int(seq.srcs[j]) * lineSize
				copy(shadow[int(ln)*lineSize+at:], pool[src:src+n])
			}
		}
		return nil
	}
	if err := write("api.write_ns", 0, lineSize); err != nil {
		return err
	}
	if err := write("api.write_unaligned_ns", 7, 13); err != nil { // read-modify-write
		return err
	}
	got, err := buf.Read(0, len(shadow))
	rep.check(err == nil && bytes.Equal(got, shadow), "api: buffer differs from what was written")

	prefix := pool[:migratePrefix]
	fresh := func() (*mmt.Buffer, error) {
		b, err := r.link.NewBuffer(r.sender)
		if err != nil {
			return nil, err
		}
		return b, b.Write(0, prefix)
	}
	holdsPrefix := func(b *mmt.Buffer) bool {
		data, err := b.Read(0, len(prefix))
		return err == nil && bytes.Equal(data, prefix)
	}
	for s := 0; s < ms; s++ {
		// bulk's four calls
		var b *mmt.Buffer
		var full []byte
		if err := inOrder(
			rec.step("api.newbuffer_ms", 1, func() (err error) { b, err = r.link.NewBuffer(r.sender); return err }),
			rec.step("api.write_full_ms", 1, func() error { return b.Write(0, pool) }),
			rec.step("api.read_full_ms", 1, func() (err error) { full, err = b.Read(0, len(pool)); return err }),
			rec.step("api.free_us", 1, func() error { return b.Free() }),
		); err != nil {
			return err
		}
		rep.check(bytes.Equal(full, pool), "api: full read differs from full write")

		// migrate's two calls
		if b, err = fresh(); err != nil {
			return err
		}
		var moved *mmt.Buffer
		if err := inOrder(
			rec.step("api.delegate_ms", 1, func() error { return r.link.Delegate(b, mmt.OwnershipTransfer) }),
			rec.step("api.receive_us", 1, func() (err error) { moved, err = r.link.Receive(r.receiver); return err }),
		); err != nil {
			return err
		}
		rep.check(holdsPrefix(moved), "api: delegated prefix differs")
		if err := moved.Free(); err != nil {
			return err
		}

		// ownership copy: the sender keeps a writable buffer
		if b, err = fresh(); err != nil {
			return err
		}
		if err := rec.time("api.delegate_copy_ms", 1, func() error { return r.link.Delegate(b, mmt.OwnershipCopy) }); err != nil {
			return err
		}
		if moved, err = r.link.Receive(r.receiver); err != nil {
			return err
		}
		rep.check(moved.ReadOnly() && holdsPrefix(moved) && holdsPrefix(b), "api: ownership copy differs or is writable")
		if err := errors.Join(moved.Free(), b.Free()); err != nil {
			return err
		}

		// the same closure as an artifact instead of a wire message
		if b, err = fresh(); err != nil {
			return err
		}
		if err := rec.time("api.export_import_ms", 1, func() error {
			art, err := r.link.Export(b, mmt.OwnershipTransfer)
			if err != nil {
				return err
			}
			moved, err = r.link.Import(art, r.receiver)
			return err
		}); err != nil {
			return err
		}
		rep.check(holdsPrefix(moved), "api: imported prefix differs")
		if err := moved.Free(); err != nil {
			return err
		}
	}

	// One more delegation under a counting observer: messages per op.
	b, err := fresh()
	if err != nil {
		return err
	}
	c := &counter{}
	r.cluster.SetInterposer(c)
	err = r.link.Delegate(b, mmt.OwnershipTransfer)
	r.cluster.SetInterposer(nil)
	if err != nil {
		return err
	}
	rep.set("netsim.messages_per_op", float64(c.n))
	moved, err := r.link.Receive(r.receiver)
	if err != nil {
		return err
	}
	return moved.Free()
}

// ---------------------------------------------------------------------------
// api (persistence) and store

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func probePersist(rec *recorder, e *env, rep *report) (err error) {
	_, ms := sampleCounts(e)
	inst, err := startPersist(e)
	if err != nil {
		return err
	}
	p := inst.(*persistRun)
	defer func() { err = errors.Join(err, p.close()) }()
	dataFile := filepath.Join(p.dir, store.DataFileName)

	var growth []float64
	for s := 0; s < ms; s++ {
		if err := p.dirty(); err != nil {
			return err
		}
		before, err := fileSize(dataFile)
		if err != nil {
			return err
		}
		if err := rec.time("api.checkpoint_delta_ms", 1, p.cluster.Checkpoint); err != nil {
			return err
		}
		after, err := fileSize(dataFile)
		if err != nil {
			return err
		}
		growth = append(growth, float64(after-before))
	}
	rep.set("store.delta_bytes", quantile(sortedCopy(growth), 0.5))

	for s := 0; s < ms; s++ {
		// Any structural change (here: a buffer comes and goes) forces the
		// next checkpoint to write a full base.
		b, err := p.link.NewBuffer(p.sender)
		if err != nil {
			return err
		}
		if err := inOrder(b.Free, rec.step("api.checkpoint_base_ms", 1, p.cluster.Checkpoint)); err != nil {
			return err
		}
	}

	var snap bytes.Buffer
	for s := 0; s < ms; s++ {
		var saved *mmt.Manifest
		var loaded *mmt.Cluster
		if err := inOrder(
			rec.step("api.save_ms", 1, func() (err error) { snap.Reset(); saved, err = p.cluster.Save(&snap); return err }),
			rec.step("api.load_ms", 1, func() (err error) { loaded, err = mmt.Load(bytes.NewReader(snap.Bytes())); return err }),
		); err != nil {
			return err
		}
		rep.set("api.snapshot_bytes", float64(saved.SnapshotBytes))
		rep.check(saved.SnapshotBytes == snap.Len() && holds(loaded, p.shadow), "api: loaded snapshot differs")
		if err := loaded.Close(); err != nil {
			return err
		}
	}

	p.closed = true
	if err := p.cluster.Close(); err != nil {
		return err
	}
	for s := 0; s < ms; s++ {
		var reopened *mmt.Cluster
		if err := rec.time("api.open_ms", 1, func() (err error) { reopened, err = mmt.Open(p.dir); return err }); err != nil {
			return err
		}
		rep.check(holds(reopened, p.shadow), "api: reopened store differs")
		if err := reopened.Close(); err != nil {
			return err
		}
	}
	return nil
}

func probeStore(rec *recorder, e *env, rep *report) (err error) {
	_, ms := sampleCounts(e)
	// As many line-sized records as one persist delta streams.
	const payload = 96
	g := newRNG(e.seed, "store")
	n := max(int(rep.Metrics["store.delta_bytes"].Value)/(payload+9), 1)
	recs := make([]store.Record, n)
	for i := range recs {
		recs[i] = store.Record{Type: 5, Payload: make([]byte, payload)}
		g.fill(recs[i].Payload)
	}
	var hash [32]byte
	g.fill(hash[:])
	commit := func(st *store.Store) error {
		for _, r := range recs {
			if err := st.Append(r); err != nil {
				return err
			}
		}
		_, err := st.Commit(hash)
		return err
	}

	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.workdir, "store-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	disk, err := store.Open(store.Dir{Path: dir})
	if err != nil {
		return err
	}
	memfs, err := store.Open(store.NewMemFS())
	if err != nil {
		return errors.Join(err, disk.Close())
	}
	for s := 0; s < ms; s++ {
		if err := inOrder(
			rec.step("store.append_commit_ms", 1, func() error { return commit(disk) }),
			rec.step("store.append_commit_memfs_us", 1, func() error { return commit(memfs) }),
		); err != nil {
			return errors.Join(err, disk.Close())
		}
	}
	if err := errors.Join(disk.Close(), memfs.Close()); err != nil {
		return err
	}
	for s := 0; s < ms; s++ {
		var back []store.Record
		if err := rec.time("store.open_ms", 1, func() error {
			st, err := store.Open(store.Dir{Path: dir})
			if err != nil {
				return err
			}
			back, err = st.CommittedRecords()
			return errors.Join(err, st.Close())
		}); err != nil {
			return err
		}
		rep.check(len(back) == ms*n && bytes.Equal(back[0].Payload, recs[0].Payload), "store: committed records differ")
	}
	return nil
}

// ---------------------------------------------------------------------------
// trace: what the program's own telemetry costs on the hottest path.

func probeTraceCost(rec *recorder, e *env, rep *report) error {
	ns, _ := sampleCounts(e)
	variant := func(opts ...mmt.Option) (instance, error) {
		ve := *e
		ve.opts = opts
		return startLine(&ve, false)
	}
	off, err := variant()
	if err != nil {
		return err
	}
	defer off.close()
	tracing, err := variant(mmt.WithTracing(mmt.NewTraceSink()))
	if err != nil {
		return err
	}
	defer tracing.close()
	sampling, err := variant(mmt.WithTracing(mmt.NewTraceSink()), mmt.WithSampling(mmt.SamplingConfig{WindowCycles: 1 << 20}))
	if err != nil {
		return err
	}
	defer sampling.close()

	insts := []instance{off, tracing, sampling}
	perOp := make([][]float64, len(insts))
	allocs := make([]float64, len(insts))
	for s := 0; s < ns; s++ { // interleaved, so drift hits all three alike
		for i, inst := range insts {
			before := readCounters()
			t, failed, err := inst.sample()
			if err != nil {
				return err
			}
			allocs[i] += float64(readCounters().mallocs - before.mallocs)
			rep.check(failed == 0, "trace: a traced read came back wrong")
			perOp[i] = append(perOp[i], float64(t.elapsed.Nanoseconds())/lineBatch)
		}
	}
	base := p10(perOp[0])
	rep.set("trace.tracing_overhead_pct", 100*(p10(perOp[1])-base)/base)
	rep.set("trace.sampling_overhead_pct", 100*(p10(perOp[2])-base)/base)
	rep.set("trace.tracing_allocs_per_op", (allocs[1]-allocs[0])/float64(ns*lineBatch))
	return nil
}
