package router

import (
	"fmt"
	"math/bits"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

// The per-node stage work the shard rounds (parallel.go) call: the
// central arbiter with route computation and output VC allocation, and
// injection streaming. Each round's outer loop walks the stage's
// node-level active bitset with trailing-zero scans over a snapshot of
// each word (a stage only ever clears its own bitset's bits, never sets
// them, so a snapshot walk visits exactly the nodes that were active at
// stage start). Inside a node, the per-lane masks are walked the same
// way, so cost scales with active lanes, not with ports x VCs.

// inputVCAt returns node nd's input VC buffer at flattened lane idx
// (physical ports * VCs, then the injection channel).
//
//stcc:hotpath
func (f *Fabric) inputVCAt(nd *node, idx int) *vcBuffer {
	return &f.bufs[int(nd.id)*f.lanesIn+idx]
}

// arbitrate runs node nd's central arbiter: demand-slotted round-robin
// over input VCs whose front flit is an unrouted header, at most one
// routing decision per router per cycle (the paper's one-cycle routing
// delay; body flits stream behind the header without consulting the
// arbiter).
//
//stcc:hotpath
func (f *Fabric) arbitrate(nd *node, ctx *stepCtx) {
	ni := int(nd.id)
	// Candidate lanes: occupied, unbound, head flit at the front. The
	// frozen and arrival-cycle checks stay live per candidate.
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
