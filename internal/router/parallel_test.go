package router

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

// twinConfig is a 16-ary 2-cube: 256 nodes, which splits into four
// 64-node shards at Workers=8 (the per-shard span is 64-aligned, so the
// 64-node test topologies collapse to one shard). BufDepth 4 saturates
// quickly. Dispatch is pinned to DispatchSharded so the twins exercise
// concurrent rounds even on a single-CPU runner, where adaptive dispatch
// would always run them inline.
func twinConfig(mode DeadlockMode, workers int) Config {
	return Config{
		Topo:            topology.MustNew(16, 2),
		VCs:             3,
		BufDepth:        4,
		Mode:            mode,
		DeadlockTimeout: 64,
		Workers:         workers,
		Dispatch:        DispatchSharded,
	}
}

// newTwins builds the fabrics stepTwins compares: a one-shard reference
// (cfg at Workers 0) and cfg's N-shard partition twice, under cfg's own
// dispatch and under DispatchSerial, whose rounds run inline through
// the mailbox and merge path. closeTwins stops them.
func newTwins(cfg Config) []*Fabric {
	ref, inline := cfg, cfg
	ref.Workers = 0
	inline.Dispatch = DispatchSerial
	return []*Fabric{MustNew(ref), MustNew(cfg), MustNew(inline)}
}

func closeTwins(fabs []*Fabric) {
	for _, f := range fabs {
		f.Close()
	}
}

// TestShardedStepMatchesSerial steps a sharded fabric, its inline twin
// and a one-shard reference through an identical saturating injection
// sequence and requires them to agree cycle for cycle: same delivery
// sequence, same counters, same full-buffer census, and all passing the
// full invariant recount. The load is heavy enough to drive deadlock
// detection, token recovery and re-arming in Recovery mode, which are
// the trickiest cross-shard transitions. Run with -race, this is also
// the memory-model check for the barrier and merge paths.
func TestShardedStepMatchesSerial(t *testing.T) {
	for _, mode := range []DeadlockMode{Avoidance, Recovery} {
		t.Run(mode.String(), func(t *testing.T) {
			fabs := newTwins(twinConfig(mode, 8))
			defer closeTwins(fabs)
			for i, want := range []int{1, 4, 4} {
				if got := len(fabs[i].shards); got != want {
					t.Fatalf("twin %d has %d shards, want %d", i, got, want)
				}
			}
			cycles := 1200
			if testing.Short() {
				cycles = 300
			}
			stepTwins(t, fabs, false, 11, 0.08, 8, cycles, 50)
			if mode == Recovery && fabs[0].Recoveries() == 0 {
				t.Error("load never triggered a recovery; the test is not exercising the recovery merge path")
			}
		})
	}
}

// twinLog is what stepTwins records from one fabric in one cycle.
type twinLog struct {
	delivered []packet.ID
	events    []trace.Event
}

// stepTwins drives fabs through one random injection sequence (each node
// starts a packet of length plen toward a random destination with
// probability rate per cycle, when its source is free) and requires
// every fabric to agree with fabs[0] after every cycle: delivery order,
// active-set counters, delivered flits, recoveries and suspects, and,
// when traced, the trace event sequence. All must pass CheckInvariants
// every checkEvery cycles and at the end.
func stepTwins(t *testing.T, fabs []*Fabric, traced bool, seed int64, rate float64, plen, cycles, checkEvery int) {
	t.Helper()
	logs := make([]twinLog, len(fabs))
	for i, f := range fabs {
		lg := &logs[i]
		f.OnDelivered = func(p *packet.Packet) { lg.delivered = append(lg.delivered, p.ID) }
		if traced {
			f.OnEvent = func(e trace.Event) { lg.events = append(lg.events, e) }
		}
	}
	name := func(f *Fabric) string {
		return fmt.Sprintf("%d-shard %v fabric", len(f.shards), f.cfg.Dispatch)
	}
	ref := fabs[0]
	rng := rand.New(rand.NewSource(seed))
	nodes := ref.topo.Nodes()
	var id packet.ID
	for cyc := 0; cyc < cycles; cyc++ {
		for n := 0; n < nodes; n++ {
			if rng.Float64() >= rate {
				continue
			}
			src, dst := topology.NodeID(n), topology.NodeID(rng.Intn(nodes))
			if dst == src {
				continue
			}
			can := ref.CanStartInjection(src)
			for _, f := range fabs[1:] {
				if f.CanStartInjection(src) != can {
					t.Fatalf("cycle %d node %d: CanStartInjection %v on the reference, %v on the %s",
						cyc, n, can, !can, name(f))
				}
			}
			if !can {
				continue
			}
			for _, f := range fabs {
				f.StartInjection(packet.New(id, src, dst, plen, f.Now()))
			}
			id++
		}
		for _, f := range fabs {
			f.Step()
		}

		for i, f := range fabs[1:] {
			want, got := &logs[0], &logs[i+1]
			if !slices.Equal(want.delivered, got.delivered) {
				t.Fatalf("cycle %d: deliveries %v on the reference, %v on the %s", cyc, want.delivered, got.delivered, name(f))
			}
			if !slices.Equal(want.events, got.events) {
				k := 0
				for k < min(len(want.events), len(got.events)) && want.events[k] == got.events[k] {
					k++
				}
				t.Fatalf("cycle %d: %d trace events on the reference, %d on the %s; they differ from event %d on",
					cyc, len(want.events), len(got.events), name(f), k)
			}
			if ref.net != f.net {
				t.Fatalf("cycle %d: counters diverge: reference %+v, %s %+v", cyc, ref.net, name(f), f.net)
			}
			if a, b := ref.DeliveredFlits(), f.DeliveredFlits(); a != b {
				t.Fatalf("cycle %d: delivered flits %d on the reference, %d on the %s", cyc, a, b, name(f))
			}
			if a, b := ref.Recoveries(), f.Recoveries(); a != b {
				t.Fatalf("cycle %d: recoveries %d on the reference, %d on the %s", cyc, a, b, name(f))
			}
			if a, b := ref.SuspectedPackets(), f.SuspectedPackets(); a != b {
				t.Fatalf("cycle %d: suspects %d on the reference, %d on the %s", cyc, a, b, name(f))
			}
		}
		for i := range logs {
			logs[i].delivered, logs[i].events = logs[i].delivered[:0], logs[i].events[:0]
		}
		if cyc%checkEvery == 0 || cyc == cycles-1 {
			for _, f := range fabs {
				if err := f.CheckInvariants(); err != nil {
					t.Fatalf("%s invariants at cycle %d: %v", name(f), cyc, err)
				}
			}
		}
	}
}

// FuzzShardedMatchesSerial fuzzes the twin comparison over the injection
// seed, the load, the deadlock mode, the worker count (2 to 8, which
// makes two or four shards on the 256-node twin) and the packet length
// (1 to 16 flits over 4-flit buffers). Packets no longer than a buffer
// can outnumber slotCapacity, so short lengths also drive the slot,
// arrival and per-shard progress tables through their append path.
func FuzzShardedMatchesSerial(f *testing.F) {
	f.Add(int64(1), uint8(20), false, uint8(2), uint8(7))
	f.Add(int64(2), uint8(100), true, uint8(0), uint8(0))
	f.Add(int64(3), uint8(127), true, uint8(6), uint8(1))
	f.Add(int64(4), uint8(60), false, uint8(1), uint8(15))
	f.Add(int64(5), uint8(90), true, uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, load uint8, recovery bool, workers, length uint8) {
		mode := Avoidance
		if recovery {
			mode = Recovery
		}
		cfg := twinConfig(mode, 2+int(workers)%7)
		cfg.DeadlockTimeout = 24
		fabs := newTwins(cfg)
		defer closeTwins(fabs)
		rate := float64(load%128) / 256 // up to one start per node every two cycles
		stepTwins(t, fabs, false, seed, rate, 1+int(length)%16, 200, 50)
	})
}

// TestShardedRefereeOrder pins the crossbar's serial credit visibility
// in sharded stepping with two hand-built blocked ports across the
// boundary between shard 0 (nodes 0-63) and shard 1 (nodes 64-127) of a
// 16-ary 2-cube, in one cycle:
//
//   - node 64's port toward node 48 holds a header whose downstream
//     buffer at node 48 is full, and node 48 pops that buffer in the same
//     cycle. Serial stepping visits node 48 first, so the credit is free
//     by node 64's turn and the header must move.
//   - node 48's port toward node 64 is blocked the same way, and node 64
//     pops the downstream buffer in the same cycle. Serial stepping
//     visits node 48 first, so the credit is still taken and the header
//     must not move.
//
// Each full buffer drains into its node's delivery channel, which needs
// no credit. The scan must hand the first port to the referee and
// settle the second itself, and the sharded result must match a
// one-shard twin lane for lane.
func TestShardedRefereeOrder(t *testing.T) {
	const early, late = 48, 64
	build := func(workers int) (f *Fabric, toEarly, toLate int) {
		f = MustNew(twinConfig(Avoidance, workers))
		toEarly, toLate = -1, -1
		for p := 0; p < f.topo.PhysPorts(); p++ {
			if f.topo.Neighbor(late, topology.PortDim(p), topology.PortDir(p)) == early {
				toEarly = p
			}
			if f.topo.Neighbor(early, topology.PortDim(p), topology.PortDir(p)) == late {
				toLate = p
			}
		}
		if toEarly < 0 || toLate < 0 {
			t.Fatalf("nodes %d and %d are not neighbors", early, late)
		}
		const vc = 1
		var id packet.ID
		// plant puts a whole packet in buffer b, bound to output VC
		// (port, vc) of b's node, as if it had been injected and routed.
		plant := func(b *vcBuffer, dst topology.NodeID, port, vc int) {
			p := packet.New(id, b.node, dst, int(f.depth), 0)
			id++
			s := f.takeSlot(p)
			for i := int32(0); i < f.depth; i++ {
				b.push(flit{slot: s, idx: i}, &f.net)
			}
			p.SrcRemaining = 0
			p.InjectedAt = 0
			f.inFlight++
			b.setBinding(s, port, vc, &f.net)
			f.nodes[b.node].outs[port][vc].acquire(b.gid, s, &f.net)
		}
		inj := func(ni int) *vcBuffer { return &f.nodes[ni].inputs[f.injPort][0] }
		fedBy := func(ni, port int) *vcBuffer {
			return &f.bufs[f.dstGid[ni*f.lanesOut+port*f.cfg.VCs+vc]]
		}
		plant(fedBy(late, toEarly), early, f.dlvPort, 0)
		plant(inj(late), early, toEarly, vc)
		plant(fedBy(early, toLate), late, f.dlvPort, 0)
		plant(inj(early), late, toLate, vc)
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("planted state: %v", err)
		}
		return f, toEarly, toLate
	}

	// The scan alone: both delivery moves and nothing else commit, and
	// only the port toward the earlier node goes to the referee.
	f, toEarly, toLate := build(4)
	if len(f.shards) != 4 {
		t.Fatalf("%d shards, want 4", len(f.shards))
	}
	for si := range f.shards {
		f.xbarScanShard(&f.shards[si])
	}
	if c := f.shards[1].cands; len(c) != 1 || c[0] != (xbCand{ni: late, p: int16(toEarly)}) {
		t.Errorf("shard 1 referee ports %v, want only node %d port %d", c, late, toEarly)
	}
	for _, si := range []int{0, 1} {
		if mv := f.shards[si].moves; len(mv) != 1 || int(mv[0].p) != f.dlvPort {
			t.Errorf("shard %d scan committed %v, want its delivery move only", si, mv)
		}
	}
	if n := len(f.shards[0].cands); n != 0 {
		t.Errorf("shard 0 sent %d ports to the referee; node %d's port toward node %d must settle in the scan", n, early, late)
	}

	serial, _, _ := build(0)
	sharded, _, _ := build(4)
	defer sharded.Close()
	serial.Step()
	sharded.Step()
	latch := func(f *Fabric, ni, port int) flit { return f.nodes[ni].outs[port][1].lat.f }
	if fl := latch(serial, late, toEarly); !fl.valid() || !fl.isHead() {
		t.Fatalf("serial: node %d's header did not cross toward node %d (latch %+v)", late, early, fl)
	}
	if fl := latch(serial, early, toLate); fl.valid() {
		t.Fatalf("serial: node %d's header crossed toward node %d before the credit freed (latch %+v)", early, late, fl)
	}
	for i := range serial.outsA {
		if a, b := serial.outsA[i].lat.f, sharded.outsA[i].lat.f; a != b {
			t.Errorf("output lane %d latch: serial %+v, sharded %+v", i, a, b)
		}
	}
	for g := range serial.occ {
		if serial.occ[g] != sharded.occ[g] {
			t.Errorf("input lane %d occupancy: serial %d, sharded %d", g, serial.occ[g], sharded.occ[g])
		}
	}
	if serial.net != sharded.net {
		t.Errorf("counters: serial %+v, sharded %+v", serial.net, sharded.net)
	}
	for _, f := range []*Fabric{serial, sharded} {
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdaptiveDispatchFlipsMidRun drives an adaptive-dispatch fabric
// through a bursty ramp schedule — injection bursts that push the active
// population over adaptHi, then idle stretches that drain it below
// adaptLo — and requires cycle-for-cycle agreement with a one-shard
// twin across the inline->concurrent and concurrent->inline hysteresis
// flips. The fabric's maxProcs is pinned to 8 so the adaptive policy
// actually goes concurrent on a single-CPU runner; the test fails if the
// schedule never produced at least one flip in each direction, because
// then the mid-run transition (the state handed from inline rounds to
// the barrier rounds and back) was not exercised at all.
func TestAdaptiveDispatchFlipsMidRun(t *testing.T) {
	for _, mode := range []DeadlockMode{Avoidance, Recovery} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := twinConfig(mode, 8)
			cfg.Dispatch = DispatchAdaptive
			serial := MustNew(twinConfig(mode, 0))
			adaptive := MustNew(cfg)
			defer adaptive.Close()
			adaptive.maxProcs = 8 // pretend multi-core; GOMAXPROCS may be 1 in CI
			adaptive.adaptHi, adaptive.adaptLo = 48, 24

			var serSeq, adSeq []packet.ID
			serial.OnDelivered = func(p *packet.Packet) { serSeq = append(serSeq, p.ID) }
			adaptive.OnDelivered = func(p *packet.Packet) { adSeq = append(adSeq, p.ID) }

			rng := rand.New(rand.NewSource(23))
			nodes := serial.topo.Nodes()
			var id packet.ID
			var flipsUp, flipsDown int
			wasSharded := false
			cycles := 1600
			if testing.Short() {
				cycles = 800
			}
			for cyc := 0; cyc < cycles; cyc++ {
				rate := 0.0
				if (cyc/200)%2 == 0 {
					rate = 0.15 // burst phase; odd windows are drain phases
				}
				for n := 0; n < nodes; n++ {
					if rng.Float64() >= rate {
						continue
					}
					dst := topology.NodeID(rng.Intn(nodes))
					if dst == topology.NodeID(n) || !serial.CanStartInjection(topology.NodeID(n)) {
						continue
					}
					serial.StartInjection(packet.New(id, topology.NodeID(n), dst, 8, serial.Now()))
					adaptive.StartInjection(packet.New(id, topology.NodeID(n), dst, 8, adaptive.Now()))
					id++
				}
				serial.Step()
				adaptive.Step()
				if adaptive.useSharded != wasSharded {
					if adaptive.useSharded {
						flipsUp++
					} else {
						flipsDown++
					}
					wasSharded = adaptive.useSharded
				}
				if len(serSeq) != len(adSeq) {
					t.Fatalf("cycle %d: %d serial deliveries, %d adaptive", cyc, len(serSeq), len(adSeq))
				}
				for i := range serSeq {
					if serSeq[i] != adSeq[i] {
						t.Fatalf("cycle %d: delivery %d is packet %d serial, %d adaptive",
							cyc, i, serSeq[i], adSeq[i])
					}
				}
				serSeq, adSeq = serSeq[:0], adSeq[:0]
				if serial.net != adaptive.net {
					t.Fatalf("cycle %d: counters diverge: serial %+v, adaptive %+v",
						cyc, serial.net, adaptive.net)
				}
				if cyc%100 == 0 {
					if err := adaptive.CheckInvariants(); err != nil {
						t.Fatalf("adaptive invariants at cycle %d: %v", cyc, err)
					}
				}
			}
			if flipsUp == 0 || flipsDown == 0 {
				t.Fatalf("schedule produced %d serial->sharded and %d sharded->serial flips; want at least one each",
					flipsUp, flipsDown)
			}
			if adaptive.workers == nil {
				t.Fatal("adaptive fabric never started shard workers")
			}
			if a, b := serial.DeliveredFlits(), adaptive.DeliveredFlits(); a != b {
				t.Fatalf("delivered flits %d serial, %d adaptive", a, b)
			}
		})
	}
}

// TestShardedWorkerLifecycle pins the worker pool's lifecycle: lazy
// start on the first sharded step, shutdown on Close, and a restart on
// the next Step after Close.
func TestShardedWorkerLifecycle(t *testing.T) {
	f := MustNew(twinConfig(Avoidance, 8))
	if f.workers != nil {
		t.Fatal("workers started before the first Step")
	}
	f.Step()
	if f.workers == nil {
		t.Fatal("workers not started by the first sharded Step")
	}
	f.Close()
	if f.workers != nil {
		t.Fatal("Close did not clear the worker pool")
	}
	f.Close() // idempotent
	f.Step()
	if f.workers == nil {
		t.Fatal("Step after Close did not restart the workers")
	}
	f.Close()
}

// TestShardPartition pins the shard geometry: spans are 64-aligned so
// no two shards share an active-bitset word, and one worker or a
// network that fits in one span makes a single shard whose span is the
// node count rounded up to 64.
func TestShardPartition(t *testing.T) {
	cases := []struct {
		k, workers int
		wantShards int
		wantSpan   int
	}{
		{16, 8, 4, 64},  // 256 nodes: ceil(256/8)=32 -> span 64
		{16, 2, 2, 128}, // 256 nodes: span 128
		{16, 1, 1, 256}, // one worker: one shard over every node
		{16, 0, 1, 256}, // likewise
		{8, 8, 1, 64},   // 64 nodes round to one 64-node span
		{6, 4, 1, 64},   // 36 nodes: span rounds up past the node count
		{16, 64, 4, 64}, // more workers than spans: clamp to 4 shards
	}
	for _, c := range cases {
		cfg := Config{
			Topo: topology.MustNew(c.k, 2), VCs: 3, BufDepth: 4,
			Mode: Avoidance, Workers: c.workers,
		}
		f := MustNew(cfg)
		if len(f.shards) != c.wantShards {
			t.Fatalf("k=%d workers=%d: %d shards, want %d", c.k, c.workers, len(f.shards), c.wantShards)
		}
		if f.shardSpan != c.wantSpan {
			t.Errorf("k=%d workers=%d: span %d, want %d", c.k, c.workers, f.shardSpan, c.wantSpan)
		}
		if first, last := f.shards[0], f.shards[len(f.shards)-1]; first.lo != 0 || last.hi != c.k*c.k {
			t.Errorf("k=%d workers=%d: shards cover [%d, %d), want [0, %d)", c.k, c.workers, first.lo, last.hi, c.k*c.k)
		}
	}
}

// TestTracedStepMatchesSerial pins the OnEvent contract: a traced
// 4-shard fabric runs its rounds inline, never starts workers, and emits
// the same trace events, cycle for cycle, as a traced one-shard fabric,
// under saturating Recovery-mode load that drives recoveries.
func TestTracedStepMatchesSerial(t *testing.T) {
	fabs := newTwins(twinConfig(Recovery, 8))
	defer closeTwins(fabs)
	if got := len(fabs[1].shards); got != 4 {
		t.Fatalf("traced twin has %d shards, want 4", got)
	}
	cycles := 1200
	if testing.Short() {
		cycles = 300
	}
	stepTwins(t, fabs, true, 11, 0.08, 8, cycles, 100)
	if fabs[0].Recoveries() == 0 {
		t.Error("load never triggered a recovery; the trace has no recovery events to order")
	}
	for _, f := range fabs {
		if f.workers != nil {
			t.Fatalf("traced %d-shard fabric started shard workers", len(f.shards))
		}
	}
}
