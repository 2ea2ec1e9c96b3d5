// Package router implements the wormhole-switched router fabric the paper
// evaluates on: per-physical-channel virtual channels with fixed-depth
// edge buffers, a central demand-slotted round-robin arbiter with a
// one-cycle routing delay, a crossbar that moves one flit per output port
// per cycle, one-cycle links, one injection and one delivery channel per
// node, Duato-style deadlock avoidance via an escape virtual channel, and
// Disha-style progressive deadlock recovery via a token-serialized
// deadlock-buffer lane.
package router

import (
	"fmt"
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/topology"
)

// This file is the only place the fabric's structure-of-arrays hot state
// may be written: the per-lane occupancy array (occ), the per-node lane
// masks (occMask, boundMask, headMask, latchMask, ownedMask), the
// node-level active bitsets (actWords) with their per-shard summary
// level (sumWords), and the netCounters sums. The
// counterguard analyzer enforces the restriction; every transition goes
// through the accessors below so the masks, the bitsets and the counters
// can never drift apart, on inline or concurrent cycles.

// netCounters are the network-wide active-set sums the per-cycle stages
// consult to skip whole sweeps in O(1). Stage rounds pass their shard's
// private delta instance and the coordinator folds the deltas into the
// fabric's between rounds, so workers never contend on them; recovery,
// on the coordinator, writes the fabric's instance directly.
type netCounters struct {
	fullBuffers int // completely full countable VC buffers
	latched     int // output latches holding a flit
	ownedOuts   int // output VCs owned by a packet
	occupiedIns int // non-empty input VCs
	pendingIns  int // input VCs whose front is an unrouted header
	srcActive   int // nodes with a packet streaming into injection
}

// add folds a shard's delta into the fabric-wide sums.
//
//stcc:hotpath
func (nc *netCounters) add(d *netCounters) {
	nc.fullBuffers += d.fullBuffers
	nc.latched += d.latched
	nc.ownedOuts += d.ownedOuts
	nc.occupiedIns += d.occupiedIns
	nc.pendingIns += d.pendingIns
	nc.srcActive += d.srcActive
}

// initSoA allocates the structure-of-arrays hot state for a fabric of
// the given size. Called once from New; it lives in this file so that
// every write to the guarded arrays — including their construction —
// stays behind the accessor boundary.
func (f *Fabric) initSoA(nodes int) {
	f.occ = make([]int32, nodes*f.lanesIn)
	f.occMask = make([]uint64, nodes)
	f.boundMask = make([]uint64, nodes)
	f.headMask = make([]uint64, nodes)
	f.latchMask = make([]uint64, nodes)
	f.ownedMask = make([]uint64, nodes)
	f.actOccupied.init(nodes)
	f.actPending.init(nodes)
	f.actLatched.init(nodes)
	f.actOwned.init(nodes)
	f.actSrc.init(nodes)
	if f.markHi > 0 {
		words := (nodes + 63) >> 6
		f.nodeOcc = make([]int32, nodes)
		f.congWords = make([]uint64, words)
		f.congStable = make([]uint64, words)
	}
}

// snapshotCongestion copies the live congestion bits into the stable
// set that header pushes mark packets against. The coordinator calls it
// at the top of every Step, before any stage runs — the only congStable
// write site, so the marking decision for the whole cycle is frozen at
// the cycle boundary.
//
//stcc:hotpath
func (f *Fabric) snapshotCongestion() {
	copy(f.congStable, f.congWords)
}

// activeWords is a bitset with one bit per node ("active words"): the
// per-cycle stages iterate set bits with trailing-zero scans instead of
// walking every router. Shard partitions are aligned to 64-node
// boundaries, so two shards never write the same actWords word. sumWords
// is the second level of the hierarchy — bit w is set iff actWords[w] is
// non-zero — and lets the coordinator decide in O(shards) which shards
// have any work for a round (see anyIn). One sumWords word spans 64
// actWords words (4096 nodes), so shards DO share summary words; the
// summary updates are atomic Or/And, which is deterministic because
// concurrent shards touch distinct bits and bit set/clear commutes.
// The coordinator only reads sumWords between phases, after the barrier,
// so plain loads in anyIn are ordered. Both levels are maintained in
// lockstep here so they can never disagree; counterguard pins every
// write to this file.
type activeWords struct {
	actWords []uint64
	sumWords []uint64
}

func (a *activeWords) init(nodes int) {
	words := (nodes + 63) >> 6
	a.actWords = make([]uint64, words)
	a.sumWords = make([]uint64, (words+63)>>6)
}

//stcc:hotpath
func (a *activeWords) set(i int32) {
	w := i >> 6
	if a.actWords[w] == 0 {
		orUint64(&a.sumWords[w>>6], 1<<uint(w&63))
	}
	a.actWords[w] |= 1 << uint(i&63)
}

//stcc:hotpath
func (a *activeWords) clearBit(i int32) {
	w := i >> 6
	if a.actWords[w] &^= 1 << uint(i&63); a.actWords[w] == 0 {
		andUint64(&a.sumWords[w>>6], ^(uint64(1) << uint(w&63)))
	}
}

// orUint64 atomically sets the bits of mask in *addr, and andUint64
// atomically keeps only the bits of mask. They are compare-and-swap
// loops rather than sync/atomic's OrUint64/AndUint64, which need Go 1.23
// (go.mod targets 1.22); the stored bits are the same and concurrent
// updates of distinct bits still commute.
//
//stcc:hotpath
func orUint64(addr *uint64, mask uint64) {
	for {
		old := atomic.LoadUint64(addr)
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return
		}
	}
}

//stcc:hotpath
func andUint64(addr *uint64, mask uint64) {
	for {
		old := atomic.LoadUint64(addr)
		if atomic.CompareAndSwapUint64(addr, old, old&mask) {
			return
		}
	}
}

// anyIn reports whether any node in [lo, hi) is active, reading only
// the summary level. lo must be 64-aligned (shard partitions are); hi
// may be ragged, but because a shard owns its trailing partial word
// exclusively, rounding hi up to the word boundary is exact.
//
//stcc:hotpath
func (a *activeWords) anyIn(lo, hi int) bool {
	wlo, whi := lo>>6, (hi+63)>>6 // active-word index range [wlo, whi)
	slo, shi := wlo>>6, (whi-1)>>6
	first := ^uint64(0) << uint(wlo&63)
	last := ^uint64(0) >> uint(63-((whi-1)&63))
	if slo == shi {
		return a.sumWords[slo]&first&last != 0
	}
	if a.sumWords[slo]&first != 0 {
		return true
	}
	for si := slo + 1; si < shi; si++ {
		if a.sumWords[si] != 0 {
			return true
		}
	}
	return a.sumWords[shi]&last != 0
}

// flit is one flow-control unit: the idx-th flit of the packet in slot
// slot of the fabric's slot table. Eight bytes and pointer-free, so the
// flit-ring arena is never scanned by the garbage collector. Slot 0 is
// never assigned, so the zero flit is "no flit". The per-packet state a
// flit move consults — mode, length, progress stamp, header arrival
// cycle — lives in the slot tables (see slots.go).
type flit struct {
	slot int32
	idx  int32
}

//stcc:hotpath
func (f flit) valid() bool { return f.slot != 0 }

//stcc:hotpath
func (f flit) isHead() bool { return f.idx == 0 }

// vcBuffer is one virtual channel's edge buffer: a fixed-capacity FIFO of
// flits, plus the wormhole binding state (which output VC the packet at
// its front has been allocated). Buffers live in a per-fabric arena
// indexed by gid, and the flit ring of buffer gid is the window
// flits[gid*BufDepth:][:BufDepth] of the fabric's flit arena; a buffer's
// identity is its arena address, which is stable for the fabric's
// lifetime. The occupancy count itself lives in the fabric's contiguous
// occ array (indexed by gid), so a remote credit check reads one hot
// array element instead of pulling in the whole buffer struct.
type vcBuffer struct {
	fab  *Fabric
	node topology.NodeID
	port int32 // input port (physical, or the injection port)
	vc   int32

	gid  int32 // global input-lane index (node*lanesIn + lane) into fab.occ
	head int32 // ring index of the front flit

	// Wormhole binding: boundSlot is the slot of the packet whose header
	// was routed from the front of this buffer (0 = unbound), outPort
	// and outVC the output VC it was allocated; cleared when its tail
	// flit leaves the buffer.
	boundSlot int32
	outPort   int32
	outVC     int32

	lane uint8 // node-local input-lane index: bit position in the lane masks

	// countable buffers contribute to the global full-buffer metric
	// (physical-channel VCs only, matching the paper's 3072 count).
	countable bool
}

//stcc:hotpath
func (b *vcBuffer) bound() bool { return b.boundSlot != 0 }

//stcc:hotpath
func (b *vcBuffer) len() int { return int(b.fab.occ[b.gid]) }

//stcc:hotpath
func (b *vcBuffer) full() bool { return b.fab.occ[b.gid] == b.fab.depth }

// ring returns the buffer's flit ring, a window into the fabric's
// node-major flit arena.
//
//stcc:hotpath
func (b *vcBuffer) ring() []flit {
	d := b.fab.depth
	lo := b.gid * d
	return b.fab.flits[lo : lo+d : lo+d]
}

//stcc:hotpath
func (b *vcBuffer) front() flit {
	fab := b.fab
	if fab.occ[b.gid] == 0 {
		return flit{}
	}
	return fab.flits[b.gid*fab.depth+b.head]
}

// push appends f at the tail of the ring. A header push also records
// the header's arrival (the slot's headArr, read by the routing
// arbiter's one-cycle routing delay), extends the packet's trail, and
// applies the DECbit mark.
//
//stcc:hotpath
func (b *vcBuffer) push(f flit, nc *netCounters) {
	fab := b.fab
	n := fab.occ[b.gid]
	d := fab.depth
	if n == d {
		panic(fmt.Sprintf("router: overflow of %v", b))
	}
	// Conditional wrap instead of %: the ring index is always already in
	// range, and avoiding the integer division matters on a path run for
	// every flit movement in the network.
	i := b.head + n
	if i >= d {
		i -= d
	}
	fab.flits[b.gid*d+i] = f
	fab.occ[b.gid] = n + 1
	if n == 0 {
		bit := uint64(1) << b.lane
		fab.occMask[b.node] |= bit
		fab.actOccupied.set(int32(b.node))
		nc.occupiedIns++
		if f.idx == 0 {
			fab.headMask[b.node] |= bit
		}
		if !b.bound() {
			nc.pendingIns++
			fab.actPending.set(int32(b.node))
		}
	}
	if b.countable && n+1 == d {
		nc.fullBuffers++
	}
	if f.idx == 0 {
		// A packet's header is in exactly one buffer, so exactly one
		// shard writes its arrival stamp and trail per cycle, and only
		// that shard's arbiter reads headArr (see slots.go).
		fab.headArr[f.slot] = fab.now
		fab.slotPkt[f.slot].PushTrail(b)
	}
	if fab.markHi > 0 && b.countable {
		// DECbit maintenance. The bit raises against the live per-node
		// occupancy (order-free within a cycle: pushes only grow it, so
		// the crossing happens iff the phase's final occupancy crosses),
		// but the packet mark reads the cycle-stable snapshot, and only
		// on the header flit — a packet's header is in exactly one
		// buffer, so exactly one shard writes the packet per cycle.
		no := fab.nodeOcc[b.node] + 1
		fab.nodeOcc[b.node] = no
		if no >= fab.markHi {
			fab.congWords[b.node>>6] |= 1 << uint(b.node&63)
		}
		if f.idx == 0 && fab.congStable[b.node>>6]&(1<<uint(b.node&63)) != 0 {
			fab.slotPkt[f.slot].Marked = true
		}
	}
}

//stcc:hotpath
func (b *vcBuffer) pop(nc *netCounters) flit {
	fab := b.fab
	n := fab.occ[b.gid]
	d := fab.depth
	if n == 0 {
		panic(fmt.Sprintf("router: underflow of %v", b))
	}
	if b.countable && n == d {
		nc.fullBuffers--
	}
	ring := b.ring()
	f := ring[b.head]
	ring[b.head] = flit{}
	b.head++
	if b.head == d {
		b.head = 0
	}
	n--
	fab.occ[b.gid] = n
	bit := uint64(1) << b.lane
	if n == 0 {
		fab.occMask[b.node] &^= bit
		fab.headMask[b.node] &^= bit
		if fab.occMask[b.node] == 0 {
			fab.actOccupied.clearBit(int32(b.node))
		}
		nc.occupiedIns--
		if !b.bound() {
			nc.pendingIns--
			if fab.occMask[b.node]&^fab.boundMask[b.node] == 0 {
				fab.actPending.clearBit(int32(b.node))
			}
		}
	} else if ring[b.head].idx == 0 {
		fab.headMask[b.node] |= bit
	} else {
		fab.headMask[b.node] &^= bit
	}
	if fab.markHi > 0 && b.countable {
		// DECbit hysteresis: the bit lowers only once the router has
		// drained to half its mark. Pops only shrink the occupancy
		// within their phase, so clearing is as order-free as setting.
		no := fab.nodeOcc[b.node] - 1
		fab.nodeOcc[b.node] = no
		if no <= fab.markLo {
			fab.congWords[b.node>>6] &^= 1 << uint(b.node&63)
		}
	}
	return f
}

// setBinding records the wormhole route decision for the packet in slot
// s at the front of b. The buffer leaves the pending set: its front is
// no longer an unrouted header.
//
//stcc:hotpath
func (b *vcBuffer) setBinding(s int32, port, vc int, nc *netCounters) {
	fab := b.fab
	b.boundSlot = s
	b.outPort = int32(port)
	b.outVC = int32(vc)
	fab.boundMask[b.node] |= uint64(1) << b.lane
	if fab.occ[b.gid] > 0 {
		nc.pendingIns--
		if fab.occMask[b.node]&^fab.boundMask[b.node] == 0 {
			fab.actPending.clearBit(int32(b.node))
		}
	}
}

// clearBinding resets the wormhole route state after a tail departs. Any
// flits still buffered belong to the next packet, whose header is now an
// arbitration candidate again.
//
//stcc:hotpath
func (b *vcBuffer) clearBinding(nc *netCounters) {
	fab := b.fab
	b.boundSlot = 0
	b.outPort = 0
	b.outVC = 0
	fab.boundMask[b.node] &^= uint64(1) << b.lane
	if fab.occ[b.gid] > 0 {
		nc.pendingIns++
		fab.actPending.set(int32(b.node))
	}
}

// CountOf implements packet.Location.
//
//stcc:hotpath
func (b *vcBuffer) CountOf(p *packet.Packet) int {
	ring := b.ring()
	c := 0
	i := int(b.head)
	for k := 0; k < b.len(); k++ {
		if b.fab.slotPkt[ring[i].slot] == p {
			c++
		}
		if i++; i == len(ring) {
			i = 0
		}
	}
	return c
}

// EvictFront implements packet.Location: deadlock recovery removes the
// worm's front flit. Recovery always runs on the coordinator, so the
// fabric-wide counters are written directly.
//
//stcc:hotpath
func (b *vcBuffer) EvictFront(p *packet.Packet) {
	if q := b.fab.slotPkt[b.front().slot]; q != p {
		panic(fmt.Sprintf("router: EvictFront of %v: front belongs to %v, not %v", b, q, p))
	}
	b.pop(&b.fab.net)
}

func (b *vcBuffer) String() string {
	return fmt.Sprintf("vcbuf(node %d port %d vc %d)", b.node, b.port, b.vc)
}

// latch is the one-flit output register between a router's crossbar and
// its outgoing link (or the delivery channel). A flit spends exactly one
// cycle here: crossbar traversal fills it, link traversal drains it. The
// latch is full iff f is a valid flit.
type latch struct {
	fab  *Fabric
	f    flit
	node int32
	port int32
	vc   int32
	lane uint8 // node-local output-lane index: bit position in the lane masks
}

//stcc:hotpath
func (l *latch) full() bool { return l.f.slot != 0 }

//stcc:hotpath
func (l *latch) set(f flit, nc *netCounters) {
	if l.full() {
		panic(fmt.Sprintf("router: latch collision at %v", l))
	}
	l.f = f
	l.fab.latchMask[l.node] |= uint64(1) << l.lane
	l.fab.actLatched.set(l.node)
	nc.latched++
}

//stcc:hotpath
func (l *latch) clear(nc *netCounters) flit {
	f := l.f
	l.f = flit{}
	l.fab.latchMask[l.node] &^= uint64(1) << l.lane
	if l.fab.latchMask[l.node] == 0 {
		l.fab.actLatched.clearBit(l.node)
	}
	nc.latched--
	return f
}

// CountOf implements packet.Location.
//
//stcc:hotpath
func (l *latch) CountOf(p *packet.Packet) int {
	if l.full() && l.fab.slotPkt[l.f.slot] == p {
		return 1
	}
	return 0
}

// EvictFront implements packet.Location. Recovery runs on the
// coordinator; the fabric-wide counters are written directly.
//
//stcc:hotpath
func (l *latch) EvictFront(p *packet.Packet) {
	if !l.full() || l.fab.slotPkt[l.f.slot] != p {
		panic(fmt.Sprintf("router: EvictFront of %v: not holding a flit of %v", l, p))
	}
	l.clear(&l.fab.net)
}

func (l *latch) String() string {
	return fmt.Sprintf("latch(node %d port %d vc %d)", l.node, l.port, l.vc)
}

// srcSlot is the not-yet-injected remainder of the packet currently
// streaming into a node's injection channel.
type srcSlot struct {
	fab  *Fabric
	node topology.NodeID
	slot int32 // the streaming packet's slot; 0 when none is streaming
}

// setPacket starts streaming the packet in slot; like the other
// accessors in this file it keeps the active-source bitset and counter
// in lockstep.
//
//stcc:hotpath
func (s *srcSlot) setPacket(slot int32, nc *netCounters) {
	s.slot = slot
	s.fab.actSrc.set(int32(s.node))
	nc.srcActive++
}

// clearPacket ends the stream (tail injected, or evicted by recovery).
//
//stcc:hotpath
func (s *srcSlot) clearPacket(nc *netCounters) {
	s.slot = 0
	s.fab.actSrc.clearBit(int32(s.node))
	nc.srcActive--
}

// CountOf implements packet.Location.
//
//stcc:hotpath
func (s *srcSlot) CountOf(p *packet.Packet) int {
	if s.fab.slotPkt[s.slot] == p {
		return p.SrcRemaining
	}
	return 0
}

// EvictFront implements packet.Location: recovery consumes source flits
// directly.
//
//stcc:hotpath
func (s *srcSlot) EvictFront(p *packet.Packet) {
	if s.fab.slotPkt[s.slot] != p || p.SrcRemaining == 0 {
		panic(fmt.Sprintf("router: EvictFront of source %d: not streaming %v", s.node, p))
	}
	p.SrcRemaining--
	if p.SrcRemaining == 0 {
		s.clearPacket(&s.fab.net)
	}
}

// outVC is one output virtual channel: ownership (a packet holds an
// output VC from header allocation until its tail crosses the link) plus
// the output latch. The owner is named by its slot and by the gid of the
// input buffer its flits stream from, so the crossbar's frozen and
// occupancy checks read the slot table and the occ array, never the
// owning vcBuffer.
type outVC struct {
	ownerSlot int32 // 0 when free
	ownerGid  int32 // input lane (gid) feeding this output VC
	lat       latch
}

//stcc:hotpath
func (o *outVC) free() bool { return o.ownerSlot == 0 }

//stcc:hotpath
func (o *outVC) acquire(gid, slot int32, nc *netCounters) {
	o.ownerSlot = slot
	o.ownerGid = gid
	fab := o.lat.fab
	fab.ownedMask[o.lat.node] |= uint64(1) << o.lat.lane
	fab.actOwned.set(o.lat.node)
	nc.ownedOuts++
}

//stcc:hotpath
func (o *outVC) release(nc *netCounters) {
	o.ownerSlot = 0
	o.ownerGid = 0
	fab := o.lat.fab
	fab.ownedMask[o.lat.node] &^= uint64(1) << o.lat.lane
	if fab.ownedMask[o.lat.node] == 0 {
		fab.actOwned.clearBit(o.lat.node)
	}
	nc.ownedOuts--
}
