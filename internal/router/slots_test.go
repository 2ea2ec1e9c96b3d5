package router

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/topology"
)

// slotOf returns the slot the fabric assigned p, or 0 when p is not in
// flight.
func slotOf(f *Fabric, p *packet.Packet) int32 {
	for s, q := range f.slotPkt {
		if q == p {
			return int32(s)
		}
	}
	return 0
}

// TestHotLayoutSizes pins the per-lane structs the stages stream
// through. Every flit move reads a ring element, and every crossbar and
// link decision reads an outVC and usually a vcBuffer; on the 4096-node
// torus these arenas are megabytes, far past L2, so each byte per lane
// is paid in cache misses. A field that re-bloats them should fail here
// and be justified, not slip in.
func TestHotLayoutSizes(t *testing.T) {
	// Slot and index, no pointer: the flit-ring arena stays out of the
	// garbage collector's scan and eight flits share a cache line.
	if got := unsafe.Sizeof(flit{}); got != 8 {
		t.Errorf("flit is %d bytes, want 8", got)
	}
	// Fabric pointer, node, seven int32 lane fields and two one-byte
	// fields: 48 bytes, under a cache line.
	if got := unsafe.Sizeof(vcBuffer{}); got > 48 {
		t.Errorf("vcBuffer is %d bytes, want <= 48", got)
	}
	// Owner slot and lane plus the latch (fabric pointer, flit, three
	// int32 and the lane byte): 40 bytes.
	if got := unsafe.Sizeof(outVC{}); got > 40 {
		t.Errorf("outVC is %d bytes, want <= 40", got)
	}
	// The hot per-packet record: length and mode only. The progress
	// and header-arrival stamps live in their own tables, so the record
	// every flit move reads is written only at slot assignment and mode
	// changes, and eight records share a cache line.
	if got := unsafe.Sizeof(slotRec{}); got > 8 {
		t.Errorf("slotRec is %d bytes, want <= 8", got)
	}
}

// TestSlotTableRecyclesUnderRecovery drives a saturated recovery-mode
// fabric until it has completed a recovery and re-armed a suspect whose
// token wait expired, checking every invariant (slot table included)
// every 64 cycles. Slots must recycle: the table never grows past the
// peak number of packets in flight, and the free list holds every slot
// once the network drains.
func TestSlotTableRecyclesUnderRecovery(t *testing.T) {
	cfg := testConfig(4, Recovery)
	cfg.DeadlockTimeout = 16
	cfg.TokenWaitTimeout = 8
	f := MustNew(cfg)
	nodes := cfg.Topo.Nodes()
	pool := packet.NewPool()
	f.OnDelivered = pool.Put
	rng := rand.New(rand.NewSource(11))
	var id packet.ID
	peak, rearms := 0, 0
	for f.Now() < 4000 {
		for n := 0; n < nodes; n++ {
			if rng.Float64() < 0.2 && f.CanStartInjection(topology.NodeID(n)) {
				dst := topology.NodeID(rng.Intn(nodes - 1))
				if dst >= topology.NodeID(n) {
					dst++
				}
				f.StartInjection(pool.Get(id, topology.NodeID(n), dst, 16, f.Now()))
				id++
			}
		}
		peak = max(peak, f.InFlight())
		// Suspects whose token wait has run out re-arm in this Step.
		for _, sp := range f.suspects {
			if f.Now()-sp.at > f.tokenWait {
				rearms++
			}
		}
		f.Step()
		if live := len(f.slots) - 1; live > peak {
			t.Fatalf("cycle %d: slot table holds %d slots, peak in flight %d", f.Now(), live, peak)
		}
		if f.Now()%64 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", f.Now(), err)
			}
		}
	}
	if f.Recoveries() == 0 {
		t.Fatal("no recovery completed; the run does not exercise slot release by recovery")
	}
	if rearms == 0 {
		t.Fatal("no suspect re-armed; the run does not exercise the token-wait path")
	}
	for f.InFlight() > 0 && f.Now() < 200_000 {
		f.Step()
	}
	if f.InFlight() != 0 {
		t.Fatalf("%d packets stuck after drain", f.InFlight())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(f.freeSlots), len(f.slots)-1; got != want {
		t.Fatalf("drained fabric: %d free slots, want all %d", got, want)
	}
	if got := len(f.slots) - 1; got > peak {
		t.Fatalf("slot table grew to %d, past the peak of %d in flight", got, peak)
	}
	// 16-flit packets over 8-flit buffers: the preallocation covers
	// them, so the tables were never reallocated.
	if got, want := cap(f.slots), f.slotCapacity(); got != want {
		t.Fatalf("slot table capacity %d, want the preallocated %d", got, want)
	}
}
