package router

import (
	"sync/atomic"

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
// Two parallel tables are indexed by slot:
//
//   - slots, the hot records every flit move consults (frozen check,
//     tail test, progress stamp, header arrival), 24 bytes each and
//     pointer-free;
//   - slotPkt, the cold slot -> *packet.Packet map, read only where
//     per-packet fields are needed: routing a header (destination),
//     delivery, trails, marks and recovery.
//
// Who writes a record, and when:
//
//   - prog: every flit move. Serial stages store plainly; sharded rounds
//     store atomically, because flits of one worm advance at several
//     shards in the same round (all store the current cycle, so the
//     result is order-free). Detection loads it atomically, since in
//     recovery mode it shares a round with routing and injection.
//   - headArr: the header push (buffer.go). A header is in exactly one
//     buffer, so one shard writes it, and only the shard holding the
//     header reads it: the arbiter runs after a link round's barrier,
//     and in recovery mode's fused round it runs before the same
//     worker's injection pushes.
//   - mode: the coordinator (freeze, re-arm, recovery start), plus the
//     escape demotion in avoidance mode's routing round, made by the
//     one shard holding the packet's header. Each write mirrors the
//     packet's own Mode field, which stays the public record.
//   - length: fixed at slot assignment.
type slotRec struct {
	prog    int64 // last cycle any flit of the packet advanced
	headArr int64 // cycle the header entered its current buffer
	length  int32
	mode    packet.Mode
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

// takeSlot assigns p a slot, seeding its record from the packet: the
// progress stamp is the pre-injection one the caller set with
// packet.Progress.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) takeSlot(p *packet.Packet) int32 {
	//stcc:atomicguard StartInjection runs between Steps; no stage worker is running
	rec := slotRec{prog: p.LastProgress, headArr: -1, length: int32(p.Length), mode: p.Mode}
	if n := len(f.freeSlots); n > 0 {
		s := f.freeSlots[n-1]
		f.freeSlots = f.freeSlots[:n-1]
		f.slots[s] = rec
		f.slotPkt[s] = p
		return s
	}
	s := int32(len(f.slots))
	f.slots = append(f.slots, rec)
	f.slotPkt = append(f.slotPkt, p)
	return s
}

// releaseSlot returns a delivered packet's slot to the free list and
// drops the table's reference to the packet, which may be recycled.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) releaseSlot(s int32) {
	f.slots[s] = slotRec{}
	f.slotPkt[s] = nil
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

// stamp records that the packet in slot s advanced at cycle now. A
// shard context stores atomically: several flits of one worm can
// advance at different shards in the same round, all storing the same
// cycle, so the order cannot matter. Serial stepping stores plainly.
//
//stcc:hotpath
func (f *Fabric) stamp(ctx *stepCtx, s int32, now int64) {
	if ctx.atomic {
		//stcc:shardguard same-value atomic store; every writer this round stores the current cycle
		atomic.StoreInt64(&f.slots[s].prog, now)
		return
	}
	//stcc:shardguard serial stepping only: every shard context is atomic, so no round reaches this store
	f.slots[s].prog = now //stcc:atomicguard serial stages are barrier-ordered against the rounds' atomic stores
}

// blockedFor returns how long the packet in slot s has gone without
// progress as of cycle now. The load is atomic because recovery mode's
// fused round runs detection beside routing and injection at other
// shards; the stores racing it carry the current cycle, and a packet
// they touch progressed no earlier than the previous cycle, so either
// value reads as blocked for at most one cycle — far below any timeout.
//
//stcc:hotpath
func (f *Fabric) blockedFor(s int32, now int64) int64 {
	//stcc:shardguard the address is taken for an atomic load, which writes nothing
	return now - atomic.LoadInt64(&f.slots[s].prog)
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
