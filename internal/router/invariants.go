package router

import (
	"fmt"

	"repro/internal/packet"
)

// CheckInvariants walks the whole fabric and verifies structural
// invariants: buffer occupancy bounds and the occ array, the per-node
// lane masks and node-level active bitsets the stages iterate, the
// incremental full-buffer counter and network active-set sums, wormhole
// binding/ownership consistency, the slot table (every buffered or
// latched flit, binding, owner, source, suspect and the recovery drain
// names a live slot; each live record mirrors its packet's Mode and
// Length; the live slots number InFlight() and are disjoint from the
// free list, which together cover the table; there is one progress
// table per shard, every table spans the slot table, and a free slot's
// entries are zero in all of them), per-packet flit conservation
// (buffered + consumed + in the recovery lane == length), the
// packet-recycling guard (no live slot may hold a packet already
// returned to a packet.Pool), and the sharded stepper's between-Steps
// state: the popped-lane bitset is clear and every shard's scratch
// lists are empty.
// It exists for tests and debugging; it is O(network size) and is never
// called by Step.
func (f *Fabric) CheckInvariants() error {
	live := func(s int32) bool { return s > 0 && int(s) < len(f.slotPkt) && f.slotPkt[s] != nil }
	buffered := make([]int, len(f.slots)) // flits held per slot
	// Recount into plain locals (counterguard confines netCounters field
	// writes to buffer.go); the comparison builds a struct at the end.
	var fullBuffers, latched, ownedOuts, occupiedIns, pendingIns, srcActive int

	for ni := range f.nodes {
		nd := &f.nodes[ni]
		var occMask, boundMask, headMask, latchMask, ownedMask uint64
		countableFlits := 0
		for _, port := range nd.inputs {
			for bi := range port {
				b := &port[bi]
				n := int(f.occ[b.gid])
				ring := b.ring()
				if n < 0 || n > len(ring) {
					return fmt.Errorf("%v occupancy %d out of range", b, n)
				}
				if b.countable {
					countableFlits += n
				}
				if int(b.gid) != int(b.node)*f.lanesIn+int(b.lane) {
					return fmt.Errorf("%v lane identity mismatch (gid %d, lane %d)", b, b.gid, b.lane)
				}
				if b.countable && b.full() {
					fullBuffers++
				}
				bit := uint64(1) << b.lane
				if n > 0 {
					occMask |= bit
					occupiedIns++
					if b.front().isHead() {
						headMask |= bit
					}
					if !b.bound() {
						pendingIns++
					}
				}
				if b.bound() {
					boundMask |= bit
				}
				for i := 0; i < n; i++ {
					fl := ring[(int(b.head)+i)%len(ring)]
					if !live(fl.slot) {
						return fmt.Errorf("%v holds a flit of dead slot %d at %d", b, fl.slot, i)
					}
					buffered[fl.slot]++
				}
				// The ring outside [head, head+n) must be vacated: pop
				// zeroes slots, so a stale flit means corruption.
				for i := n; i < len(ring); i++ {
					if ring[(int(b.head)+i)%len(ring)].valid() {
						return fmt.Errorf("%v holds a stale flit outside its occupied window", b)
					}
				}
				if b.bound() {
					if !live(b.boundSlot) {
						return fmt.Errorf("%v bound to dead slot %d", b, b.boundSlot)
					}
					o := &f.nodes[b.node].outs[b.outPort][b.outVC]
					if o.ownerSlot != b.boundSlot || o.ownerGid != b.gid {
						return fmt.Errorf("%v bound to slot %d but output VC owned by slot %d from lane %d",
							b, b.boundSlot, o.ownerSlot, o.ownerGid)
					}
				}
			}
		}
		for _, outs := range nd.outs {
			for oi := range outs {
				o := &outs[oi]
				bit := uint64(1) << o.lat.lane
				if o.lat.full() {
					if !live(o.lat.f.slot) {
						return fmt.Errorf("%v holds a flit of dead slot %d", &o.lat, o.lat.f.slot)
					}
					buffered[o.lat.f.slot]++
					latchMask |= bit
					latched++
				}
				if !o.free() {
					if !live(o.ownerSlot) {
						return fmt.Errorf("output VC %v owned by dead slot %d", &o.lat, o.ownerSlot)
					}
					// The owner streams from a lane of this node, which
					// stays bound to it until its tail is popped into
					// this latch.
					ob := &f.bufs[o.ownerGid]
					if ob.node != nd.id {
						return fmt.Errorf("output VC %v owned from lane %d of node %d", &o.lat, o.ownerGid, ob.node)
					}
					if ob.boundSlot != o.ownerSlot && (o.lat.f.slot != o.ownerSlot || !f.isTail(o.lat.f)) {
						return fmt.Errorf("output VC %v owned by slot %d, but %v is bound to slot %d and the latch holds no tail of the owner",
							&o.lat, o.ownerSlot, ob, ob.boundSlot)
					}
					ownedMask |= bit
					ownedOuts++
				}
			}
		}
		if s := nd.src.slot; s != 0 {
			if !live(s) {
				return fmt.Errorf("node %d streams from dead slot %d", nd.id, s)
			}
			buffered[s] += f.slotPkt[s].SrcRemaining
			srcActive++
		}

		if occMask != f.occMask[ni] || boundMask != f.boundMask[ni] || headMask != f.headMask[ni] ||
			latchMask != f.latchMask[ni] || ownedMask != f.ownedMask[ni] {
			return fmt.Errorf("node %d lane masks (occ %x bound %x head %x latch %x owned %x), recount (%x %x %x %x %x)",
				nd.id, f.occMask[ni], f.boundMask[ni], f.headMask[ni], f.latchMask[ni], f.ownedMask[ni],
				occMask, boundMask, headMask, latchMask, ownedMask)
		}
		bit := uint64(1) << uint(ni&63)
		checks := [...]struct {
			name string
			a    *activeWords
			want bool
		}{
			{"occupied", &f.actOccupied, occMask != 0},
			{"pending", &f.actPending, occMask&^boundMask != 0},
			{"latched", &f.actLatched, latchMask != 0},
			{"owned", &f.actOwned, ownedMask != 0},
			{"src", &f.actSrc, nd.src.slot != 0},
		}
		for _, c := range checks {
			if got := c.a.actWords[ni>>6]&bit != 0; got != c.want {
				return fmt.Errorf("node %d active bitset %s = %v, want %v", nd.id, c.name, got, c.want)
			}
		}
		if f.markHi > 0 {
			// The per-node occupancy fold must match a recount, and the
			// congestion bit must respect the hysteresis band: forced on
			// at or above markHi, forced off at or below markLo, and
			// path-dependent (either value legal) in between.
			if got := int(f.nodeOcc[ni]); got != countableFlits {
				return fmt.Errorf("node %d buffered-flit fold %d, recount %d", nd.id, got, countableFlits)
			}
			congested := f.congWords[ni>>6]&bit != 0
			if countableFlits >= int(f.markHi) && !congested {
				return fmt.Errorf("node %d occupancy %d >= mark %d but congestion bit clear",
					nd.id, countableFlits, f.markHi)
			}
			if countableFlits <= int(f.markLo) && congested {
				return fmt.Errorf("node %d occupancy %d <= clear threshold %d but congestion bit set",
					nd.id, countableFlits, f.markLo)
			}
		}
	}

	// The summary level must mirror the active words exactly: bit w of
	// sumWords is set iff actWords[w] is non-zero. A divergence means a
	// stage skipped (or needlessly ran) a shard round.
	for _, c := range [...]struct {
		name string
		a    *activeWords
	}{
		{"occupied", &f.actOccupied},
		{"pending", &f.actPending},
		{"latched", &f.actLatched},
		{"owned", &f.actOwned},
		{"src", &f.actSrc},
	} {
		for w, aw := range c.a.actWords {
			want := aw != 0
			if got := c.a.sumWords[w>>6]&(1<<uint(w&63)) != 0; got != want {
				return fmt.Errorf("bitset %s summary word bit %d = %v, want %v (actWords[%d] = %x)",
					c.name, w, got, want, w, aw)
			}
		}
	}

	recount := netCounters{
		fullBuffers: fullBuffers,
		latched:     latched,
		ownedOuts:   ownedOuts,
		occupiedIns: occupiedIns,
		pendingIns:  pendingIns,
		srcActive:   srcActive,
	}
	if recount != f.net {
		return fmt.Errorf("network active-set counters %+v, recount %+v", f.net, recount)
	}

	if err := f.checkSlots(live); err != nil {
		return err
	}
	if err := f.checkShardScratch(); err != nil {
		return err
	}

	// Per-packet conservation, in slot order.
	for s := 1; s < len(f.slots); s++ {
		p := f.slotPkt[s]
		if p == nil {
			continue
		}
		if p.Recycled() {
			return fmt.Errorf("%v recycled but still referenced by network state (use-after-recycle)", p)
		}
		n := buffered[s]
		want := p.Length - p.Consumed
		if f.rec != nil && f.rec.slot == int32(s) {
			want -= f.rec.popped - f.rec.arrived // flits in the recovery lane
		}
		if n != want {
			return fmt.Errorf("%v: %d flits buffered, want %d (consumed %d)", p, n, want, p.Consumed)
		}
		if p.Delivered() {
			return fmt.Errorf("%v delivered but still buffered", p)
		}
	}
	return nil
}

// checkSlots verifies the slot tables themselves: they are parallel
// (one progress table per shard), live records mirror their packets,
// free slots are zero in every table, live and free slots partition the
// table, the live count is the in-flight count, and the recovery drain
// and the suspect queue name live packets in the matching mode.
func (f *Fabric) checkSlots(live func(int32) bool) error {
	if len(f.slots) != len(f.slotPkt) || len(f.slots) != len(f.headArr) || len(f.slots) == 0 || f.slotPkt[0] != nil {
		return fmt.Errorf("slot table malformed: %d records, %d packet entries, %d arrival stamps",
			len(f.slots), len(f.slotPkt), len(f.headArr))
	}
	if want := len(f.shards); len(f.progs) != want {
		return fmt.Errorf("%d progress tables, want one per shard (%d)", len(f.progs), want)
	}
	for i, pt := range f.progs {
		if len(pt) != len(f.slots) {
			return fmt.Errorf("progress table %d has %d entries, slot table %d", i, len(pt), len(f.slots))
		}
	}
	nlive := 0
	for s := 1; s < len(f.slots); s++ {
		p := f.slotPkt[s]
		if p == nil {
			if f.slots[s] != (slotRec{}) || f.headArr[s] != 0 {
				return fmt.Errorf("free slot %d has a record %+v, arrival %d", s, f.slots[s], f.headArr[s])
			}
			for i, pt := range f.progs {
				if pt[s] != 0 {
					return fmt.Errorf("free slot %d has progress %d in table %d", s, pt[s], i)
				}
			}
			continue
		}
		nlive++
		if r := &f.slots[s]; r.mode != p.Mode || int(r.length) != p.Length {
			return fmt.Errorf("slot %d record (mode %v, length %d) disagrees with %v", s, r.mode, r.length, p)
		}
	}
	if nlive != f.inFlight {
		return fmt.Errorf("%d live slots, %d packets in flight", nlive, f.inFlight)
	}
	free := make([]bool, len(f.slots))
	for _, s := range f.freeSlots {
		if s <= 0 || int(s) >= len(f.slots) {
			return fmt.Errorf("free list holds out-of-range slot %d", s)
		}
		if free[s] {
			return fmt.Errorf("free list holds slot %d twice", s)
		}
		if live(s) {
			return fmt.Errorf("free slot %d still holds %v", s, f.slotPkt[s])
		}
		free[s] = true
	}
	if nlive+len(f.freeSlots) != len(f.slots)-1 {
		return fmt.Errorf("%d live + %d free slots do not cover the %d-slot table (leaked slot)",
			nlive, len(f.freeSlots), len(f.slots)-1)
	}
	if r := f.rec; r != nil {
		if !live(r.slot) || f.slotPkt[r.slot] != r.pkt || f.slots[r.slot].mode != packet.Recovering {
			return fmt.Errorf("recovery drains %v from slot %d, which does not hold it recovering", r.pkt, r.slot)
		}
	}
	for _, sp := range f.suspects {
		if !live(sp.slot) || f.slots[sp.slot].mode != packet.Suspected {
			return fmt.Errorf("suspect queue names slot %d, not a live suspected packet", sp.slot)
		}
	}
	return nil
}

// checkShardScratch verifies the sharded stepper leaves nothing behind
// between Steps: the apply round clears every popped bit it set, and
// every per-round scratch list is drained by its consumer.
func (f *Fabric) checkShardScratch() error {
	for w, bits := range f.popped {
		if bits != 0 {
			return fmt.Errorf("popped-lane word %d = %x between Steps", w, bits)
		}
	}
	for si := range f.shards {
		sh := &f.shards[si]
		if len(sh.cands) != 0 || len(sh.moves) != 0 || len(sh.delivered) != 0 || len(sh.suspects) != 0 {
			return fmt.Errorf("shard %d scratch not drained: %d referee ports, %d moves, %d deliveries, %d suspects",
				si, len(sh.cands), len(sh.moves), len(sh.delivered), len(sh.suspects))
		}
		for d, hs := range sh.hand {
			if len(hs) != 0 {
				return fmt.Errorf("shard %d mailbox to shard %d holds %d handoffs", si, d, len(hs))
			}
		}
		if sh.delta != (netCounters{}) || sh.deliveredFlits != 0 {
			return fmt.Errorf("shard %d has unfolded counters %+v, %d delivered flits", si, sh.delta, sh.deliveredFlits)
		}
	}
	return nil
}
