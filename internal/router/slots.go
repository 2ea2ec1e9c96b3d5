package router

import (
	"repro/internal/packet"
)

// The slot table: per-packet state the flit-moving stages read, kept
// out of the flits and out of the packet structs.
//
// A packet gets a slot when StartInjection accepts it and gives it back
// when it is delivered (tail consumed at the delivery channel, or
// drained by recovery). Slots come off a LIFO free list, so for a fixed
// injection and delivery order the assignment is fixed too — and no
// decision ever depends on a slot's number, only on its record. Slot 0
// is never handed out, which makes the zero flit and a zero owner mean
// "none".
//
// Parallel tables indexed by slot, split by who writes them so that no
// parallel round writes an element another shard reads in that round:
//
//   - slots, the hot records every flit move consults (frozen check,
//     tail test), 8 bytes each and pointer-free. Written at slot
//     assignment and on mode changes: by the coordinator (freeze,
//     re-arm, recovery start), plus the escape demotion in avoidance
//     mode's routing round, made by the one shard holding the packet's
//     header while injection, the other reader of the mode, waits for
//     its own round. Each mode write mirrors the packet's own Mode
//     field, which stays the public record.
//   - headArr, the cycle the header entered its current buffer, written
//     by the header push (buffer.go). A header is in exactly one
//     buffer, so one shard writes it, and only the shard holding the
//     header reads it: the arbiter runs after a link round's barrier,
//     and in recovery mode's route+inject round it runs before the same
//     worker's injection pushes.
//   - progs, one progress table per shard: the last cycle a flit of
//     the packet advanced. Every flit move stamps the current cycle
//     into its own shard's table (the coordinator's stamps go through
//     shard 0's context into table 0), so flits of one worm advancing
//     at several shards in one round never write the same word. Stamps
//     only ever store the current cycle, so the packet's last progress
//     is the maximum over the tables (blockedFor). Detection reads them
//     in its own round, after the barrier that ends the stamping
//     rounds.
//   - slotPkt, the cold slot -> *packet.Packet map, read only where
//     per-packet fields are needed: routing a header (destination),
//     delivery, trails, marks and recovery.
//
// A free slot's entries are all zero in every table.
type slotRec struct {
	length int32
	mode   packet.Mode
}

// slotCapacity is the slot table's preallocated size: an upper bound
// on the packets in flight whenever every packet is longer than
// BufDepth (the default 16-flit packets over 8-flit buffers). Such a
// packet never fits in one buffer, so once its source has streamed it
// out its tail sits in a latch or in a buffer it was routed from, and
// either way it still owns the output VC its tail has not crossed yet.
// So apart from one streaming packet per source and the recovery drain,
// every packet in flight owns a distinct output VC; slot 0 is reserved.
// Shorter packets can exceed the bound, and the tables then grow by
// append up to their own high-water mark.
func (f *Fabric) slotCapacity() int {
	return len(f.outsA) + len(f.nodes) + 2
}

// initSlots allocates the slot tables, one progress table per shard.
// Slot 0 is reserved (the zero flit and a free output VC name it), so
// every table starts one entry long.
func (f *Fabric) initSlots() {
	sc := f.slotCapacity()
	f.slots = make([]slotRec, 1, sc)
	f.slotPkt = make([]*packet.Packet, 1, sc)
	f.headArr = make([]int64, 1, sc)
	f.progs = make([][]int64, len(f.shards))
	for i := range f.progs {
		f.progs[i] = make([]int64, 1, sc)
	}
	f.freeSlots = make([]int32, 0, sc)
}

// takeSlot assigns p a slot, seeding its record from the packet: the
// progress stamp is the pre-injection one the caller set with
// packet.Progress, stamped through shard 0's context into table 0 (the
// other tables hold zero).
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) takeSlot(p *packet.Packet) int32 {
	var s int32
	if n := len(f.freeSlots); n > 0 {
		s = f.freeSlots[n-1]
		f.freeSlots = f.freeSlots[:n-1]
	} else {
		s = int32(len(f.slots))
		f.slots = append(f.slots, slotRec{})
		f.slotPkt = append(f.slotPkt, nil)
		f.headArr = append(f.headArr, 0)
		for i := range f.progs {
			f.progs[i] = append(f.progs[i], 0)
		}
	}
	f.slots[s] = slotRec{length: int32(p.Length), mode: p.Mode}
	f.slotPkt[s] = p
	f.headArr[s] = -1
	f.stamp(&f.shards[0].ctx, s, p.LastProgress)
	return s
}

// releaseSlot returns a delivered packet's slot to the free list, zeroes
// its entries and drops the table's reference to the packet, which may
// be recycled.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) releaseSlot(s int32) {
	f.slots[s] = slotRec{}
	f.slotPkt[s] = nil
	f.headArr[s] = 0
	for _, pt := range f.progs {
		pt[s] = 0
	}
	f.freeSlots = append(f.freeSlots, s)
}

// setMode moves the packet in slot s to mode m, in both the hot record
// and the packet's public Mode field.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) setMode(s int32, m packet.Mode) {
	f.slots[s].mode = m
	f.slotPkt[s].Mode = m
}

// stamp records that the packet in slot s advanced at cycle now, in the
// progress table of the stage context's shard. No other shard writes
// that table, and nothing reads it until the round's barrier.
//
//stcc:hotpath
func (f *Fabric) stamp(ctx *stepCtx, s int32, now int64) {
	//stcc:shardguard the element lives in this shard's own progress table
	f.progs[ctx.shard][s] = now
}

// blockedFor returns how long the packet in slot s has gone without
// progress as of cycle now: the latest stamp over every shard's table.
//
//stcc:hotpath
func (f *Fabric) blockedFor(s int32, now int64) int64 {
	last := f.progs[0][s]
	for _, pt := range f.progs[1:] {
		last = max(last, pt[s])
	}
	return now - last
}

// isTail reports whether fl is its packet's last flit.
//
//stcc:hotpath
func (f *Fabric) isTail(fl flit) bool { return fl.idx == f.slots[fl.slot].length-1 }

// frozen reports whether the packet in slot s is committed to recovery
// (suspected or draining), which stops all its normal flit movement.
//
//stcc:hotpath
func (f *Fabric) frozen(s int32) bool { return f.slots[s].mode.Frozen() }
