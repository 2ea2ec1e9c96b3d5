package router

import (
	"fmt"
	"math/bits"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Disha-style progressive deadlock recovery.
//
// Detection: a packet whose header flit sits blocked at the front of an
// input virtual channel for longer than the configured timeout is
// presumed deadlocked. Recovery: the packet acquires the network's single
// recovery token ("exclusive access to the deadlock-free path") and is
// drained, one flit per cycle, through the per-node deadlock-buffer lane,
// which routes dimension-order over the mesh sub-network and is therefore
// deadlock free. Flits reach the destination after the lane's hop latency
// and are consumed there; the token is released when the tail arrives.
// Draining frees the virtual channels and buffers the worm occupied,
// letting the rest of the deadlocked cycle make progress.

// drainLoc is one location of the frozen worm, with the flits it held at
// freeze time and the resource cleanup to run once it is vacated. The
// cleanup target is stored as data, not as a closure, so reconstructing
// a worm's locations never allocates (recovery fires continuously past
// saturation; per-recovery closures were the fabric's only steady-state
// allocation).
type drainLoc struct {
	loc        packet.Location
	count      int
	cleanupBuf *vcBuffer // release this buffer's binding when vacated
	cleanupOut *outVC    // release this output VC when vacated
}

// suspect is a frozen packet queued for the recovery token.
type suspect struct {
	buf  *vcBuffer
	at   int64 // cycle of suspicion
	slot int32
}

// recoveryState tracks the packet currently holding the recovery token.
// The fabric embeds one instance (recStore) and reuses it — including
// the locs backing array — across recoveries.
type recoveryState struct {
	pkt     *packet.Packet
	slot    int32
	locs    []drainLoc // downstream-first: locs[0] drains first
	idx     int
	dist    int // mesh DOR hops from the header's router to the destination
	started int64
	popped  int
	arrived int
}

// detectNode scans node ni's input lanes whose front flit is a header
// and appends the packets blocked past the timeout to out (in lane
// order) as deadlock suspects. A suspected packet is committed to
// recovery: it freezes in place (its flits stop competing for normal
// channels) and queues for the single recovery token — "a packet [must]
// obtain exclusive access to the deadlock-free path". When the token is
// free the oldest suspect starts draining. Past saturation most packets
// exceed the timeout, the token queue grows, and frozen worms clog the
// network: this is the mechanism behind the paper's throughput collapse
// in the recovery configuration.
//
// The scan only reads: the coordinator freezes the collected suspects
// afterwards (freezeSuspects), in node order, so the scan can run in a
// concurrent round that writes only its shard's suspect list. A
// packet's head flit fronts exactly one lane network-wide, so deferring
// the freeze cannot change any other detect decision within the cycle.
//
//stcc:hotpath
func (f *Fabric) detectNode(ni int, out *[]suspect) {
	now := f.now
	timeout := f.cfg.DeadlockTimeout
	base := ni * f.lanesIn
	for dm := f.occMask[ni] & f.headMask[ni]; dm != 0; dm &= dm - 1 {
		lane := bits.TrailingZeros64(dm)
		b := &f.bufs[base+lane]
		s := b.front().slot
		if f.frozen(s) {
			continue
		}
		if f.blockedFor(s, now) > timeout {
			*out = append(*out, suspect{buf: b, slot: s, at: now})
		}
	}
}

// freezeSuspects commits a batch of fresh suspects: each packet freezes
// in place and the suspicion event is emitted, in the order the scan
// found them.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) freezeSuspects(fresh []suspect) {
	for i := range fresh {
		s := &fresh[i]
		f.setMode(s.slot, packet.Suspected)
		f.emit(trace.Suspected, f.slotPkt[s.slot], s.buf.node)
	}
}

// serviceSuspects re-arms suspects that have waited too long for the
// token and hands the free token to the oldest remaining suspect. The
// presumed deadlock may have been plain congestion, so a re-armed packet
// resumes normal routing with a fresh timer; without this, one
// serialized token would freeze a saturated network forever.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) serviceSuspects() {
	now := f.now
	kept := f.suspects[:0]
	for _, s := range f.suspects {
		if now-s.at > f.tokenWait {
			f.setMode(s.slot, packet.Adaptive)
			f.stamp(&f.shards[0].ctx, s.slot, now)
			continue
		}
		kept = append(kept, s)
	}
	for i := len(kept); i < len(f.suspects); i++ {
		f.suspects[i] = suspect{}
	}
	f.suspects = kept

	if f.rec == nil && len(f.suspects) > 0 {
		victim := f.suspects[0]
		copy(f.suspects, f.suspects[1:])
		f.suspects[len(f.suspects)-1] = suspect{}
		f.suspects = f.suspects[:len(f.suspects)-1]
		f.startRecovery(victim.buf)
	}
}

// feedingLatch returns the output latch (and owning output VC) at the
// upstream router that sends into input buffer b; nil for the injection
// channel, which is fed directly from the source.
//
//stcc:hotpath
func (f *Fabric) feedingLatch(b *vcBuffer) *outVC {
	if int(b.port) == f.injPort {
		return nil
	}
	port := int(b.port)
	up := f.topo.Neighbor(b.node, topology.PortDim(port), topology.PortDir(port))
	return &f.nodes[up].outs[topology.OppositePort(port)][b.vc]
}

// startRecovery freezes the worm whose header sits at the front of head
// and reconstructs its locations from the packet's trail. The recovery
// state and its locations array are reused across recoveries.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) startRecovery(head *vcBuffer) {
	s := head.front().slot
	pkt := f.slotPkt[s]
	f.setMode(s, packet.Recovering)

	r := &f.recStore
	*r = recoveryState{
		pkt:     pkt,
		slot:    s,
		locs:    r.locs[:0],
		dist:    f.topo.MeshDistance(head.node, pkt.Dst),
		started: f.now,
	}

	total := 0
	trail := pkt.Trail
	for i := len(trail) - 1; i >= 0; i-- {
		b := trail[i].(*vcBuffer)
		if c := b.CountOf(pkt); c > 0 {
			r.locs = append(r.locs, drainLoc{loc: b, count: c, cleanupBuf: b})
			total += c
		}
		// A mid-worm flit may sit in the latch feeding b (crossbar'd
		// this cycle, frozen before link traversal).
		if o := f.feedingLatch(b); o != nil {
			if c := o.lat.CountOf(pkt); c > 0 {
				r.locs = append(r.locs, drainLoc{loc: &o.lat, count: c, cleanupOut: o})
				total += c
			}
		}
	}
	src := &f.nodes[pkt.Src].src
	if c := src.CountOf(pkt); c > 0 {
		r.locs = append(r.locs, drainLoc{loc: src, count: c})
		total += c
	}

	if total != pkt.Length {
		panic(fmt.Sprintf("router: recovery of %v found %d flits, want %d", pkt, total, pkt.Length))
	}
	f.rec = r
	f.emit(trace.RecoveryStarted, pkt, head.node)
}

// cleanupBuffer releases the resources an input buffer held for the
// recovered packet (slot s): its wormhole binding and the output VC its
// header allocated at this router (whose downstream flits have already
// drained).
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) cleanupBuffer(b *vcBuffer, s int32) {
	if b.boundSlot == s {
		o := &f.nodes[b.node].outs[b.outPort][b.outVC]
		if o.ownerSlot == s {
			o.release(&f.net)
		}
		b.clearBinding(&f.net)
	}
}

// cleanupOutVC releases ownership of an output VC once the recovered
// packet's (slot s) flit has been evicted from its latch (the in-flight
// tail case).
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) cleanupOutVC(o *outVC, s int32) {
	if o.ownerSlot == s {
		o.release(&f.net)
	}
}

// recoveryStep advances the active recovery by one cycle: evict one flit
// into the deadlock-buffer lane and count lane arrivals at the
// destination. Recovery always runs on the coordinator, before the
// stages, so it works on the fabric-wide counters directly.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) recoveryStep() {
	r := f.rec
	if r == nil {
		return
	}
	now := f.now

	if r.popped < r.pkt.Length {
		for r.idx < len(r.locs) && r.locs[r.idx].count == 0 {
			r.idx++
		}
		if r.idx >= len(r.locs) {
			panic(fmt.Sprintf("router: recovery of %v ran out of flits after %d", r.pkt, r.popped))
		}
		d := &r.locs[r.idx]
		d.loc.EvictFront(r.pkt)
		d.count--
		r.popped++
		if d.count == 0 {
			if d.cleanupBuf != nil {
				f.cleanupBuffer(d.cleanupBuf, r.slot)
			} else if d.cleanupOut != nil {
				f.cleanupOutVC(d.cleanupOut, r.slot)
			}
		}
	}

	// Flit j is popped at cycle started+1+j and arrives at the
	// destination dist+1 cycles later.
	if j := now - r.started - int64(r.dist) - 2; j >= 0 && j < int64(r.pkt.Length) {
		f.countDeliveredFlit()
		r.pkt.Consumed++
		r.arrived++
		if r.arrived == r.pkt.Length {
			f.emit(trace.RecoveryCompleted, r.pkt, r.pkt.Dst)
			f.deliver(r.slot, now)
			f.recoveries++
			f.rec = nil
		}
	}
}
