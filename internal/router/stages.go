package router

import (
	"fmt"
	"math/bits"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

// The per-cycle stages. Each outer loop walks the stage's node-level
// active bitset with trailing-zero scans over a snapshot of each word
// (a stage only ever clears its own bitset's bits, never sets them, so
// a snapshot walk visits exactly the nodes that were active at stage
// start — the serial semantics). Inside a node, the per-lane masks are
// walked the same way, so cost scales with active lanes, not with
// ports x VCs.

// linkStage moves every latched flit across its link into the downstream
// virtual-channel buffer (one cycle per flit per link), or consumes it at
// the delivery channel. Space downstream is guaranteed: the crossbar only
// latched the flit after checking occupancy, and each buffer has exactly
// one upstream source.
//
//stcc:hotpath
func (f *Fabric) linkStage() {
	if f.net.latched == 0 {
		return // no latched flit anywhere in the network
	}
	for wi, w := range f.actLatched.actWords {
		for w != 0 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f.linkNode(ni, &f.serial)
		}
	}
}

// linkNode drains node ni's latches: delivery lanes consume at this
// node, physical lanes hand off to the downstream neighbor.
//
//stcc:hotpath
func (f *Fabric) linkNode(ni int, ctx *stepCtx) {
	now := f.now
	base := ni * f.lanesOut
	for lm := f.latchMask[ni]; lm != 0; lm &= lm - 1 {
		lane := bits.TrailingZeros64(lm)
		o := &f.outsA[base+lane]
		if f.frozen(o.lat.f.slot) {
			continue
		}
		fl := o.lat.clear(ctx.nc)
		f.stamp(ctx, fl.slot, now)
		if int(o.lat.port) == f.dlvPort {
			f.countDeliveredFlit()
			f.slotPkt[fl.slot].Consumed++
			if f.isTail(fl) {
				o.release(ctx.nc)
				f.deliver(fl.slot, now)
			}
			continue
		}
		tb := &f.bufs[f.dstGid[base+lane]]
		if tb.full() {
			panic(fmt.Sprintf("router: link overflow into %v at cycle %d", tb, now))
		}
		tb.push(fl, ctx.nc)
		if f.isTail(fl) {
			o.release(ctx.nc)
		}
	}
}

// crossbarStage performs switch allocation and crossbar traversal: per
// output port, at most one flit moves from the front of an owning input
// VC into the output latch (one cycle per flit through the crossbar).
// Winners are chosen round-robin over the port's output VCs.
//
//stcc:hotpath
func (f *Fabric) crossbarStage() {
	if f.net.ownedOuts == 0 {
		return // no packet owns an output VC anywhere
	}
	for wi, w := range f.actOwned.actWords {
		for w != 0 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f.crossbarNode(ni)
		}
	}
}

// crossbarNode runs switch allocation at node ni: owned-but-unlatched
// lanes are the candidates, visited port by port.
//
//stcc:hotpath
func (f *Fabric) crossbarNode(ni int) {
	cm := f.ownedMask[ni] &^ f.latchMask[ni]
	nd := &f.nodes[ni]
	for cm != 0 {
		lane := bits.TrailingZeros64(cm)
		p := int(f.laneOutPort[lane])
		base, nvc := f.outPortBase[p], f.outPortWidth[p]
		cm &^= ((uint64(1) << uint(nvc)) - 1) << uint(base)
		f.crossbarPort(nd, ni, p, base, nvc, &f.serial)
	}
}

// crossbarPort arbitrates one output port: round-robin from swPtr over
// the port's output VCs, the first candidate with a buffered flit and a
// downstream credit wins. One flit per physical port per cycle; each
// delivery (consumption) channel drains independently.
//
//stcc:hotpath
func (f *Fabric) crossbarPort(nd *node, ni, p, base, nvc int, ctx *stepCtx) {
	now := f.now
	pm := (f.ownedMask[ni] &^ f.latchMask[ni]) >> uint(base)
	outs := f.outsA[ni*f.lanesOut+base : ni*f.lanesOut+base+nvc]
	start := nd.swPtr[p]
	dlv := p == f.dlvPort
	for i := 0; i < nvc; i++ {
		vi := start + i
		if vi >= nvc {
			vi -= nvc
		}
		if pm&(uint64(1)<<uint(vi)) == 0 {
			continue
		}
		o := &outs[vi]
		if f.frozen(o.ownerSlot) {
			continue
		}
		if f.occ[o.ownerGid] == 0 {
			continue // worm stretched thin: no flit buffered here yet
		}
		if !dlv {
			tg := f.dstGid[ni*f.lanesOut+base+vi]
			if f.occ[tg] == f.depth {
				continue // no downstream credit
			}
		}
		b := &f.bufs[o.ownerGid]
		fl := b.pop(ctx.nc)
		if fl.slot != o.ownerSlot {
			panic(fmt.Sprintf("router: %v front flit of slot %d, owner slot %d", b, fl.slot, o.ownerSlot))
		}
		f.stamp(ctx, fl.slot, now)
		if f.isTail(fl) {
			b.clearBinding(ctx.nc)
		}
		o.lat.set(fl, ctx.nc)
		if !dlv {
			if nd.swPtr[p] = vi + 1; nd.swPtr[p] == nvc {
				nd.swPtr[p] = 0
			}
			return
		}
	}
}

// routingStage runs each router's central arbiter: demand-slotted
// round-robin over input VCs whose front flit is an unrouted header, at
// most one routing decision per router per cycle (the paper's one-cycle
// routing delay; body flits stream behind the header without consulting
// the arbiter).
//
//stcc:hotpath
func (f *Fabric) routingStage() {
	if f.net.pendingIns == 0 {
		return // no unrouted header anywhere
	}
	for wi, w := range f.actPending.actWords {
		for w != 0 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f.arbitrate(&f.nodes[ni], &f.serial)
		}
	}
}

// inputVCAt returns node nd's input VC buffer at flattened lane idx
// (physical ports * VCs, then the injection channel).
//
//stcc:hotpath
func (f *Fabric) inputVCAt(nd *node, idx int) *vcBuffer {
	return &f.bufs[int(nd.id)*f.lanesIn+idx]
}

//stcc:hotpath
func (f *Fabric) arbitrate(nd *node, ctx *stepCtx) {
	ni := int(nd.id)
	// Candidate lanes: occupied, unbound, head flit at the front. The
	// frozen and arrival-cycle checks stay live per candidate, exactly
	// like the serial scan's continue conditions.
	cm := (f.occMask[ni] &^ f.boundMask[ni]) & f.headMask[ni]
	if cm == 0 {
		return // no input VC holds an unrouted header
	}
	total := f.lanesIn
	ap := nd.arbPtr
	for m := cm >> uint(ap); m != 0; m &= m - 1 {
		idx := ap + bits.TrailingZeros64(m)
		if f.tryArbSlot(nd, idx, total, ctx) {
			return
		}
	}
	for m := cm & ((uint64(1) << uint(ap)) - 1); m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		if f.tryArbSlot(nd, idx, total, ctx) {
			return
		}
	}
}

// tryArbSlot offers the arbiter slot to the candidate at lane idx. It
// returns true when the candidate took the slot (whether or not output
// VC allocation succeeded — demand-slotted round robin), false when the
// candidate was ineligible this cycle and the scan continues.
//
//stcc:hotpath
func (f *Fabric) tryArbSlot(nd *node, idx, total int, ctx *stepCtx) bool {
	b := f.inputVCAt(nd, idx)
	s := b.front().slot
	if f.frozen(s) {
		return false
	}
	if f.headArr[s] >= f.now {
		// The header arrived this cycle; routing occupies the next
		// cycle (the paper's one-cycle routing delay).
		return false
	}
	nd.arbPtr = (idx + 1) % total
	f.routeHeader(nd, b, s, ctx)
	return true
}

// vcAvailable reports whether output VC (port, vc) at nd can be
// allocated to the packet in slot s: it must be unowned, and under
// virtual cut-through the downstream buffer must have room for the
// entire packet (so a blocked packet never spans routers).
//
//stcc:hotpath
func (f *Fabric) vcAvailable(nd *node, port, vc int, s int32) bool {
	if !nd.outs[port][vc].free() {
		return false
	}
	if f.cfg.Switching != CutThrough || port == f.dlvPort {
		return true
	}
	tg := f.dstGid[int(nd.id)*f.lanesOut+port*f.cfg.VCs+vc]
	return f.depth-f.occ[tg] >= f.slots[s].length
}

// routeHeader attempts route computation and output VC allocation for the
// header (of the packet in slot s) at the front of b. On failure the
// header retries on a later arbiter slot.
//
//stcc:hotpath
func (f *Fabric) routeHeader(nd *node, b *vcBuffer, s int32, ctx *stepCtx) bool {
	pkt := f.slotPkt[s]
	if pkt.Dst == nd.id {
		for v := range nd.outs[f.dlvPort] {
			if nd.outs[f.dlvPort][v].free() {
				f.allocate(nd, b, s, f.dlvPort, v, ctx)
				return true
			}
		}
		return false
	}
	switch f.cfg.Mode {
	case Recovery:
		// All virtual channels are fully adaptive.
		return f.routeAdaptive(nd, b, s, pkt.Dst, 0, ctx)
	default: // Avoidance
		if f.slots[s].mode != packet.Escape && f.routeAdaptive(nd, b, s, pkt.Dst, 1, ctx) {
			return true
		}
		// Escape lane: dimension-order over the mesh on VC 0. Once a
		// packet enters the escape lane it stays there (conservative
		// Duato protocol, trivially deadlock free).
		if f.routeEscape(nd, b, s, pkt.Dst, ctx) {
			pkt.Mode = packet.Escape
			//stcc:shardguard the header is at this node only, so this shard alone writes the record this round; injection, the other reader, runs in its own round in avoidance mode
			f.slots[s].mode = packet.Escape
			return true
		}
		return false
	}
}

// routeAdaptive tries the minimal output ports in the order the
// configured selection policy prefers, and every virtual channel from
// minVC up, taking the first free output VC.
//
//stcc:hotpath
func (f *Fabric) routeAdaptive(nd *node, b *vcBuffer, s int32, dst topology.NodeID, minVC int, ctx *stepCtx) bool {
	ports := f.topo.MinimalPorts(nd.id, dst, ctx.ports[:0])
	ctx.ports = ports
	if len(ports) == 0 {
		return false
	}
	start := 0
	switch f.cfg.Selection {
	case RotatePorts:
		start = nd.adaptPtr % len(ports)
		nd.adaptPtr++
	case MostFreeVCs:
		best := -1
		for i, p := range ports {
			free := 0
			for v := minVC; v < f.cfg.VCs; v++ {
				if nd.outs[p][v].free() {
					free++
				}
			}
			if free > best {
				best = free
				start = i
			}
		}
	}
	for i := 0; i < len(ports); i++ {
		p := ports[(start+i)%len(ports)]
		for v := minVC; v < f.cfg.VCs; v++ {
			if f.vcAvailable(nd, p, v, s) {
				f.allocate(nd, b, s, p, v, ctx)
				return true
			}
		}
	}
	return false
}

// routeEscape allocates escape VC 0 on the mesh dimension-order port.
//
//stcc:hotpath
func (f *Fabric) routeEscape(nd *node, b *vcBuffer, s int32, dst topology.NodeID, ctx *stepCtx) bool {
	p, ok := f.topo.DORMeshNextPort(nd.id, dst)
	if !ok {
		return false // local destination handled earlier
	}
	if f.vcAvailable(nd, p, 0, s) {
		f.allocate(nd, b, s, p, 0, ctx)
		return true
	}
	return false
}

// allocate binds input VC b to output VC (port, vc) for the packet in
// slot s.
//
//stcc:hotpath
func (f *Fabric) allocate(nd *node, b *vcBuffer, s int32, port, vc int, ctx *stepCtx) {
	o := &nd.outs[port][vc]
	if !o.free() {
		panic(fmt.Sprintf("router: double allocation of node %d port %d vc %d", nd.id, port, vc))
	}
	b.setBinding(s, port, vc, ctx.nc)
	o.acquire(b.gid, s, ctx.nc)
	pkt := f.slotPkt[s]
	pkt.Hops++
	f.stamp(ctx, s, f.now)
	f.emit(trace.Routed, pkt, nd.id)
}

// injectionStage streams the current packet of each node's source slot
// into the injection channel at one flit per cycle.
//
//stcc:hotpath
func (f *Fabric) injectionStage() {
	if f.net.srcActive == 0 {
		return // no source is streaming a packet
	}
	for wi, w := range f.actSrc.actWords {
		for w != 0 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f.injectNode(ni, &f.serial)
		}
	}
}

// injectNode streams one flit of node ni's current source packet.
//
//stcc:hotpath
func (f *Fabric) injectNode(ni int, ctx *stepCtx) {
	nd := &f.nodes[ni]
	s := nd.src.slot
	if s == 0 || f.frozen(s) {
		return
	}
	now := f.now
	b := &f.bufs[ni*f.lanesIn+f.lanesIn-1]
	if b.full() {
		return
	}
	pkt := f.slotPkt[s]
	idx := pkt.Length - pkt.SrcRemaining
	b.push(flit{slot: s, idx: int32(idx)}, ctx.nc)
	pkt.SrcRemaining--
	f.stamp(ctx, s, now)
	if idx == 0 {
		pkt.InjectedAt = now
		f.emit(trace.Injected, pkt, pkt.Src)
	}
	if pkt.SrcRemaining == 0 {
		nd.src.clearPacket(ctx.nc)
	}
}
