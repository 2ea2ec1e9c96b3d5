package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/congestion"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ledgerInput is the point the cycle ledger replays.
type ledgerInput struct{ cfg sim.Config }

// Parts of a cycle, in the engine's order, as the ledger times them.
const (
	partSideband = iota // sideband.Network.Tick
	partTick            // controller Tick
	partGenerate        // traffic.Schedule.Generate over every node
	partAllow           // controller AllowInjection
	partInject          // router.Fabric.StartInjection
	partStep            // router.Fabric.Step, delivery callbacks included
	partSample          // the engine's per-cycle sampling
	numParts
)

var partNames = [numParts]string{
	"sideband.tick_ns", "congestion.tick_ns", "traffic.generate_ns",
	"congestion.allow_ns", "router.inject_ns", "router.step_ns", "stats.sample_ns",
}

// lowLoad splits cycles for the step-time percentiles: a cycle whose
// offered load is below it (packets/node/cycle) counts as low.
const lowLoad = 0.01

// replica steps a second copy of a configuration through the modules'
// public functions in sim.Engine's order, timing each part. It supports
// the registered schemes that take no side-band notifications.
type replica struct {
	cfg   sim.Config
	nodes int
	fab   *router.Fabric
	side  *sideband.Network
	thr   congestion.Controller
	sched *traffic.Schedule
	rng   *rand.Rand
	pool  *packet.Pool

	queues   []fifo
	nextID   packet.ID
	injStart int

	created, injected, denials int64

	// The engine's statistics, kept so that each part does the work the
	// engine's does; the ledger never reads them.
	delivered              int64
	netLatency, totLatency stats.LatencyStats
	hops                   stats.Accumulator
	interval               int64
	deliveredMark          int64
	tput, full             *stats.Series
	fullAccum              float64
	fullAccumCycles        int64

	parts [numParts]time.Duration
}

// fifo is a source queue of generated packets: creation cycle and
// destination.
type fifo struct {
	buf  []queued
	head int
}

type queued struct {
	created int64
	dst     topology.NodeID
}

func (q *fifo) empty() bool { return q.head == len(q.buf) }

func (q *fifo) pop() queued {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// markFraction mirrors sim's resolution of the router's DECbit mark.
func markFraction(s sim.Scheme) float64 {
	if s.MarkThreshold != 0 {
		return s.MarkThreshold
	}
	if s.Kind == sim.AIMD || s.Kind == sim.Notify {
		return sim.DefaultMarkThreshold
	}
	return 0
}

func newReplica(cfg sim.Config) (*replica, error) {
	if cfg.Scheme.Kind == sim.Custom || cfg.Schedule != nil {
		return nil, fmt.Errorf("ledger: custom schemes and live schedules have no replica")
	}
	topo, err := cfg.Topology()
	if err != nil {
		return nil, err
	}
	fab, err := router.New(router.Config{
		Topo: topo, VCs: cfg.VCs, BufDepth: cfg.BufDepth,
		Mode: cfg.Mode, DeadlockTimeout: cfg.DeadlockTimeout,
		TokenWaitTimeout: cfg.TokenWaitTimeout,
		DeliveryChannels: cfg.DeliveryChannels, Selection: cfg.Selection,
		Switching: cfg.Switching, Workers: cfg.ShardWorkers,
		Dispatch: cfg.ShardDispatch, CongestMark: markFraction(cfg.Scheme),
	})
	if err != nil {
		return nil, err
	}
	side := sideband.New(sideband.Config{
		K: cfg.K, N: cfg.N, HopDelay: cfg.SidebandHopDelay, Bits: cfg.SidebandBits,
		Mechanism: cfg.SidebandMechanism, TotalBuffers: topo.TotalVCBuffers(cfg.VCs),
		PiggybackP: cfg.PiggybackP, Seed: cfg.Seed,
	}, fab)
	spec := cfg.ScheduleSpec
	if spec == nil {
		spec = traffic.SteadySpec(cfg.Pattern, traffic.ProcessSpec{Kind: traffic.BernoulliProcess, P: cfg.Rate})
	}
	sched, err := spec.Build(topo.Nodes())
	if err != nil {
		return nil, err
	}
	factory, ok := congestion.Lookup(string(cfg.Scheme.Kind))
	if !ok {
		return nil, fmt.Errorf("ledger: no controller %q", cfg.Scheme.Kind)
	}
	s := cfg.Scheme
	params := congestion.Params{
		BusyLimit: s.BusyLimit, StaticThreshold: s.StaticThreshold,
		Estimator: string(s.Estimator), TuningPeriod: s.TuningPeriod, KeepTrace: s.KeepTrace,
		WindowMin: s.WindowMin, WindowMax: s.WindowMax, Staleness: s.Staleness,
	}
	if s.Tuner != nil {
		params.Tuner = s.Tuner
	}
	thr, err := factory(congestion.Env{Kind: string(s.Kind), Topo: topo, Local: fab, Global: fab, Side: side, Params: params})
	if err != nil {
		return nil, err
	}
	if _, ok := thr.(congestion.NotificationUser); ok {
		return nil, fmt.Errorf("ledger: scheme %q uses side-band notifications, which have no replica", s.Kind)
	}
	r := &replica{
		cfg: cfg, nodes: topo.Nodes(), fab: fab, side: side, thr: thr, sched: sched,
		rng: rand.New(rand.NewSource(cfg.Seed)), pool: packet.NewPool(),
		queues: make([]fifo, topo.Nodes()),
	}
	r.interval = cfg.SampleInterval
	if r.interval == 0 {
		r.interval = cfg.GatherDuration()
	}
	r.tput, r.full = stats.NewSeries(0, r.interval), stats.NewSeries(0, r.interval)
	fab.OnDelivered = r.onDelivered
	return r, nil
}

func (r *replica) onDelivered(p *packet.Packet) {
	r.delivered++
	if p.CreatedAt >= r.cfg.WarmupCycles {
		r.netLatency.Add(float64(p.NetworkLatency()))
		r.totLatency.Add(float64(p.TotalLatency()))
		r.hops.Add(float64(p.Hops))
	}
	r.thr.Observe(congestion.FeedbackEvent{
		Kind: congestion.PacketDelivered, Cycle: p.DeliveredAt,
		Source: p.Src, Router: p.Dst, Marked: p.Marked,
	})
	r.pool.Put(p)
}

// step runs cycle now, adding each part's host time to r.parts.
func (r *replica) step(now int64) {
	t := time.Now()
	lap := func(part int) {
		n := time.Now()
		r.parts[part] += n.Sub(t)
		t = n
	}
	r.side.Tick(now)
	lap(partSideband)
	r.thr.Tick(now)
	lap(partTick)
	for n := 0; n < r.nodes; n++ {
		if dst, ok := r.sched.Generate(now, topology.NodeID(n), r.rng); ok {
			r.created++
			r.queues[n].buf = append(r.queues[n].buf, queued{created: now, dst: dst})
		}
	}
	lap(partGenerate)

	start := r.injStart
	r.injStart++
	if r.injStart == r.nodes {
		r.injStart = 0
	}
	for i := 0; i < r.nodes; i++ {
		n := start + i
		if n >= r.nodes {
			n -= r.nodes
		}
		q := &r.queues[n]
		if q.empty() || !r.fab.CanStartInjection(topology.NodeID(n)) {
			continue
		}
		head := q.buf[q.head]
		t0 := time.Now()
		ok := r.thr.AllowInjection(now, topology.NodeID(n), head.dst)
		r.parts[partAllow] += time.Since(t0)
		if !ok {
			r.denials++
			continue
		}
		q.pop()
		p := r.pool.Get(r.nextID, topology.NodeID(n), head.dst, r.cfg.PacketLength, head.created)
		r.nextID++
		p.Progress(now)
		t0 = time.Now()
		r.fab.StartInjection(p)
		r.parts[partInject] += time.Since(t0)
		r.injected++
		r.thr.Observe(congestion.FeedbackEvent{Kind: congestion.PacketInjected, Cycle: now, Source: topology.NodeID(n)})
	}
	t = time.Now()
	r.fab.Step()
	lap(partStep)

	r.fullAccum += float64(r.fab.FullVCBuffers())
	r.fullAccumCycles++
	if (now+1)%r.interval == 0 {
		flits := r.fab.DeliveredFlits() - r.deliveredMark
		r.deliveredMark = r.fab.DeliveredFlits()
		r.tput.Append(stats.Rate(flits, r.nodes, r.interval))
		r.full.Append(r.fullAccum / float64(r.fullAccumCycles))
		r.fullAccum, r.fullAccumCycles = 0, 0
	}
	lap(partSample)
}

// offeredAt is the schedule's Bernoulli load at cycle now, for
// classifying cycles as low or high load.
func offeredAt(cfg sim.Config, now int64) float64 {
	spec := cfg.ScheduleSpec
	if spec == nil {
		return cfg.Rate
	}
	var total int64
	for _, ph := range spec.Phases {
		total += ph.Duration
	}
	if spec.Loop && total > 0 {
		now %= total
	}
	for _, ph := range spec.Phases {
		if now < ph.Duration {
			return ph.Process.P
		}
		now -= ph.Duration
	}
	return 0
}

// runLedger steps a real sim.Engine and the replica in lockstep over the
// whole point. The engine's per-cycle time comes from its progress
// callback, which fires after every cycle; the replica's cycle runs
// inside that callback, outside the engine's timed interval. The parts
// count only if the replica's simulated counts match the engine's.
func runLedger(in ledgerInput) (map[string]float64, error) {
	cfg := in.cfg
	e, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := newReplica(cfg)
	if err != nil {
		return nil, err
	}
	defer rep.fab.Close()
	total := cfg.TotalCycles()
	var low, high, all []float64
	var engine time.Duration
	diverged := false
	last := time.Now()
	res, err := e.RunWithProgress(1, func(now int64) {
		d := time.Since(last)
		engine += d
		us := d.Seconds() * 1e6
		all = append(all, us)
		if offeredAt(cfg, now-1) < lowLoad {
			low = append(low, us)
		} else {
			high = append(high, us)
		}
		rep.step(now - 1)
		if rep.fab.DeliveredFlits() != e.Fabric().DeliveredFlits() {
			diverged = true
		}
		last = time.Now()
	})
	if err != nil {
		return nil, err
	}
	if res.PacketsCreated != rep.created || res.PacketsInjected != rep.injected ||
		res.ThrottleDenials != rep.denials || res.Recoveries != rep.fab.Recoveries() {
		diverged = true
	}
	m := map[string]float64{
		"sim.step_us.low.p50":  median(low),
		"sim.step_us.high.p50": median(high),
	}
	m["sim.step_us.p99"], _ = tail(all, 99)
	perCycle := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(total) }
	var sum float64
	for i, name := range partNames {
		m[name] = perCycle(rep.parts[i])
		sum += m[name]
	}
	m["ledger.residual_ns"] = perCycle(engine) - sum
	if diverged {
		m["ledger.diverged"] = 1
	}
	return m, nil
}
