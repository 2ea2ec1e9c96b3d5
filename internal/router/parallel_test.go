package router

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

// twinConfig is a 16-ary 2-cube: 256 nodes, which splits into four
// 64-node shards at Workers=8 (the per-shard span is 64-aligned, so the
// 64-node test topologies collapse to one shard and never exercise the
// parallel path). BufDepth 4 saturates quickly. Dispatch is pinned to
// DispatchSharded so the twins exercise the parallel path even on a
// single-CPU runner, where adaptive dispatch would always pick serial.
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

// TestShardedStepMatchesSerial steps a sharded fabric and a serial twin
// through an identical saturating injection sequence and requires them
// to agree cycle for cycle: same delivery sequence, same counters, same
// full-buffer census, and both passing the full invariant recount. The
// load is heavy enough to drive deadlock detection, token recovery and
// re-arming in Recovery mode, which are the trickiest cross-shard
// transitions. Run with -race, this is also the memory-model check for
// the barrier and merge paths.
func TestShardedStepMatchesSerial(t *testing.T) {
	for _, mode := range []DeadlockMode{Avoidance, Recovery} {
		t.Run(mode.String(), func(t *testing.T) {
			serial := MustNew(twinConfig(mode, 0))
			sharded := MustNew(twinConfig(mode, 8))
			defer sharded.Close()
			if got := len(sharded.shards); got != 4 {
				t.Fatalf("sharded twin has %d shards, want 4", got)
			}
			if len(serial.shards) != 0 {
				t.Fatalf("serial twin unexpectedly sharded")
			}
			cycles := 1200
			if testing.Short() {
				cycles = 300
			}
			stepTwins(t, serial, sharded, 11, 0.08, 8, cycles, 50)
			if mode == Recovery && serial.Recoveries() == 0 {
				t.Error("load never triggered a recovery; the test is not exercising the recovery merge path")
			}
		})
	}
}

// stepTwins drives a serial fabric and a sharded twin through one random
// injection sequence (each node starts a packet of length plen toward a
// random destination with probability rate per cycle, when its source
// is free) and requires them to agree after every cycle: delivery
// order, active-set counters, delivered flits, recoveries and suspects.
// Both must pass CheckInvariants every checkEvery cycles and at the end.
func stepTwins(t *testing.T, serial, sharded *Fabric, seed int64, rate float64, plen, cycles, checkEvery int) {
	t.Helper()
	var serSeq, shSeq []packet.ID
	serial.OnDelivered = func(p *packet.Packet) { serSeq = append(serSeq, p.ID) }
	sharded.OnDelivered = func(p *packet.Packet) { shSeq = append(shSeq, p.ID) }

	rng := rand.New(rand.NewSource(seed))
	nodes := serial.topo.Nodes()
	var id packet.ID
	for cyc := 0; cyc < cycles; cyc++ {
		for n := 0; n < nodes; n++ {
			if rng.Float64() >= rate {
				continue
			}
			dst := topology.NodeID(rng.Intn(nodes))
			if dst == topology.NodeID(n) {
				continue
			}
			canSer := serial.CanStartInjection(topology.NodeID(n))
			if canShard := sharded.CanStartInjection(topology.NodeID(n)); canSer != canShard {
				t.Fatalf("cycle %d node %d: CanStartInjection serial=%v sharded=%v",
					cyc, n, canSer, canShard)
			}
			if !canSer {
				continue
			}
			serial.StartInjection(packet.New(id, topology.NodeID(n), dst, plen, serial.Now()))
			sharded.StartInjection(packet.New(id, topology.NodeID(n), dst, plen, sharded.Now()))
			id++
		}
		serial.Step()
		sharded.Step()

		if len(serSeq) != len(shSeq) {
			t.Fatalf("cycle %d: %d serial deliveries, %d sharded", cyc, len(serSeq), len(shSeq))
		}
		for i := range serSeq {
			if serSeq[i] != shSeq[i] {
				t.Fatalf("cycle %d: delivery %d is packet %d serial, %d sharded",
					cyc, i, serSeq[i], shSeq[i])
			}
		}
		serSeq, shSeq = serSeq[:0], shSeq[:0]

		if serial.net != sharded.net {
			t.Fatalf("cycle %d: counters diverge: serial %+v, sharded %+v",
				cyc, serial.net, sharded.net)
		}
		if a, b := serial.DeliveredFlits(), sharded.DeliveredFlits(); a != b {
			t.Fatalf("cycle %d: delivered flits %d serial, %d sharded", cyc, a, b)
		}
		if a, b := serial.Recoveries(), sharded.Recoveries(); a != b {
			t.Fatalf("cycle %d: recoveries %d serial, %d sharded", cyc, a, b)
		}
		if a, b := serial.SuspectedPackets(), sharded.SuspectedPackets(); a != b {
			t.Fatalf("cycle %d: suspects %d serial, %d sharded", cyc, a, b)
		}
		if cyc%checkEvery == 0 || cyc == cycles-1 {
			if err := sharded.CheckInvariants(); err != nil {
				t.Fatalf("sharded invariants at cycle %d: %v", cyc, err)
			}
			if err := serial.CheckInvariants(); err != nil {
				t.Fatalf("serial invariants at cycle %d: %v", cyc, err)
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
		serCfg, shCfg := twinConfig(mode, 0), twinConfig(mode, 2+int(workers)%7)
		serCfg.DeadlockTimeout, shCfg.DeadlockTimeout = 24, 24
		serial, sharded := MustNew(serCfg), MustNew(shCfg)
		defer sharded.Close()
		rate := float64(load%128) / 256 // up to one start per node every two cycles
		stepTwins(t, serial, sharded, seed, rate, 1+int(length)%16, 200, 50)
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
// settle the second itself, and the sharded result must match a serial
// twin lane for lane.
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
// population over AdaptHigh, then idle stretches that drain it below
// AdaptLow — and requires cycle-for-cycle agreement with a pure-serial
// twin across the serial->sharded and sharded->serial hysteresis flips.
// The fabric's maxProcs is pinned to 8 so the adaptive policy actually
// shards on a single-CPU runner; the test fails if the schedule never
// produced at least one flip in each direction, because then the
// mid-run transition (the state handed from serial stages to the
// barrier rounds and back) was not exercised at all.
func TestAdaptiveDispatchFlipsMidRun(t *testing.T) {
	for _, mode := range []DeadlockMode{Avoidance, Recovery} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := twinConfig(mode, 8)
			cfg.Dispatch = DispatchAdaptive
			cfg.AdaptHigh = 48
			cfg.AdaptLow = 24
			serial := MustNew(twinConfig(mode, 0))
			adaptive := MustNew(cfg)
			defer adaptive.Close()
			adaptive.maxProcs = 8 // pretend multi-core; GOMAXPROCS may be 1 in CI

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
// no two shards share an active-bitset word, and networks that fit in
// one span step serially.
func TestShardPartition(t *testing.T) {
	cases := []struct {
		k, workers int
		wantShards int
		wantSpan   int
	}{
		{16, 8, 4, 64},  // 256 nodes: ceil(256/8)=32 -> span 64
		{16, 2, 2, 128}, // 256 nodes: span 128
		{16, 1, 0, 0},   // serial
		{8, 8, 0, 0},    // 64 nodes round to one 64-node span: serial
		{16, 64, 4, 64}, // more workers than spans: clamp to 4 shards
	}
	for _, c := range cases {
		cfg := Config{
			Topo: topology.MustNew(c.k, 2), VCs: 3, BufDepth: 4,
			Mode: Avoidance, Workers: c.workers,
		}
		f := MustNew(cfg)
		if len(f.shards) != c.wantShards {
			t.Errorf("k=%d workers=%d: %d shards, want %d", c.k, c.workers, len(f.shards), c.wantShards)
		}
		if c.wantShards > 0 {
			if f.shardSpan != c.wantSpan {
				t.Errorf("k=%d workers=%d: span %d, want %d", c.k, c.workers, f.shardSpan, c.wantSpan)
			}
			last := f.shards[len(f.shards)-1]
			if last.hi != c.k*c.k {
				t.Errorf("k=%d workers=%d: last shard ends at %d, want %d", c.k, c.workers, last.hi, c.k*c.k)
			}
		}
	}
}

// TestTracingForcesSerial pins the OnEvent contract: a fabric with an
// event sink steps serially even when sharded, so trace event order
// stays the serial interleaving.
func TestTracingForcesSerial(t *testing.T) {
	f := MustNew(twinConfig(Avoidance, 8))
	f.OnEvent = func(e trace.Event) {}
	f.Step()
	if f.workers != nil {
		t.Fatal("tracing fabric started shard workers")
	}
}
