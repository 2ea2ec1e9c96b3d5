package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// paperExps is the regenerated subset: the base network's collapse
// (fig1), the full-buffer hill (fig2) and the local baselines against
// tune (ext11) -- 28 grid points of which 19 are distinct configs.
var paperExps = []string{"fig1", "fig2", "ext11"}

// paperScale is an eighth of experiments.Quick, so that one
// regeneration takes seconds and a run can repeat it and report the
// median. The grids are the registry's own, so the seed does not reach
// this workload.
func paperScale(smoke bool) experiments.Scale {
	if smoke {
		return experiments.Scale{Warmup: 100, Measure: 300, BurstLow: 100, BurstHigh: 150}
	}
	return experiments.Scale{Warmup: 1_000, Measure: 3_000, BurstLow: 1_000, BurstHigh: 1_500}
}

// paperConfigs lists every point the regeneration requests.
func paperConfigs(scale experiments.Scale) []sim.Config {
	var cfgs []sim.Config
	for _, n := range paperExps {
		e, _ := experiments.Lookup(n)
		for _, p := range e.Spec(scale).Points() {
			cfgs = append(cfgs, p.Config)
		}
	}
	return cfgs
}

func nodeCycles(cfg sim.Config) float64 {
	nodes := 1
	for i := 0; i < cfg.N; i++ {
		nodes *= cfg.K
	}
	return float64(nodes) * float64(cfg.TotalCycles())
}

// paperSetup is the work before the first grid point steps: the grids,
// the CSV directory and the first point's engine.
func paperSetup(o *options) (func(), error) {
	cfgs := paperConfigs(paperScale(o.smoke))
	if err := os.MkdirAll(filepath.Join(o.dir, "csv"), 0o755); err != nil {
		return nil, err
	}
	e, err := sim.New(cfgs[0])
	if err != nil {
		return nil, err
	}
	return e.Close, nil
}

// regen runs the experiments exactly as stcc-paper's loop does --
// header, the entry's report, the timing line -- and digests the result.
// x, when non-nil, is the traced executor whose spans it parents.
func regen(r experiments.Runner, scale experiments.Scale, dir string, x *pointExec) (string, error) {
	var out bytes.Buffer
	ctx := experiments.RunContext{Runner: r, Scale: scale, Out: &out, CSVDir: dir}
	for _, n := range paperExps {
		e, _ := experiments.Lookup(n)
		var sp open
		if x != nil {
			sp = x.tr.begin("experiments."+n, x.trace, x.root)
			x.parent.Store(sp.id())
		}
		t0 := time.Now()
		fmt.Fprintf(&out, "==== %s ====\n", n)
		err := e.Run(ctx)
		sp.end()
		if err != nil {
			return "", fmt.Errorf("%s: %w", n, err)
		}
		fmt.Fprintf(&out, "(%s in %s)\n\n", n, time.Since(t0).Round(time.Second))
	}
	return reportDigest(out.Bytes(), dir)
}

func paperRun(o *options, tr *tracer, budget time.Duration) (*outcome, error) {
	scale := paperScale(o.smoke)
	var requested float64
	for _, c := range paperConfigs(scale) {
		requested += nodeCycles(c)
	}
	want := o.pins.Paper[sizeName(o.smoke)]
	oc := &outcome{}
	var x *pointExec
	n := 0
	_ = repeat(budget, func() error {
		n++
		dir := filepath.Join(o.dir, "csv-"+strconv.Itoa(n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		runner := experiments.Runner{Workers: o.workers}
		if tr != nil {
			x = &pointExec{tr: tr, trace: "regen-" + strconv.Itoa(n)}
			runner.Remote = x
			runner.OnPoint = x.onPoint
		}
		oc.attempted++
		var got string
		err := timeUnit(oc, func() error {
			var sp open
			if x != nil {
				sp = tr.begin("experiments.regen", x.trace, 0)
				x.root = sp.id()
			}
			var err error
			got, err = regen(runner, scale, dir, x)
			sp.end()
			return err
		})
		if err != nil {
			oc.fail("paper-regen: %v", err)
			return err
		}
		oc.jobs = append(oc.jobs, oc.walls[len(oc.walls)-1]*1e3)
		oc.nodeCycles += requested
		if got != want {
			oc.fail("paper-regen output digest %s, pinned %s", got, want)
		}
		return nil
	})
	if x != nil {
		oc.layer = x.layer(o.workers, oc.walls[len(oc.walls)-1])
		oc.costliest = x.costliest()
	}
	return oc, nil
}

// pointExec is the traced run's Runner.Remote: it simulates each point
// locally through sim's public constructor and run loop, so every point
// gets a span without a result cache changing what runs.
type pointExec struct {
	tr     *tracer
	trace  string
	root   int64        // the regeneration's span
	parent atomic.Int64 // the running experiment's span
	events atomic.Int64 // completed grid points, from Runner.OnPoint

	mu     sync.Mutex
	points []pointRecord
}

type pointRecord struct {
	fp         string
	cfg        sim.Config
	host, newS float64
	res        sim.Result
	flits      int64
}

func (x *pointExec) onPoint(experiments.PointEvent) { x.events.Add(1) }

// ExecPoint implements experiments.RemoteExecutor.
func (x *pointExec) ExecPoint(ctx context.Context, cfg sim.Config, fp string) (sim.Result, error) {
	sp := x.tr.begin("experiments.point", x.trace, x.parent.Load())
	ns := x.tr.begin("sim.new", x.trace, sp.id())
	e, err := sim.New(cfg)
	newD := ns.end()
	if err != nil {
		sp.end()
		return sim.Result{}, err
	}
	rs := x.tr.begin("sim.run", x.trace, sp.id())
	res, err := e.RunContext(ctx, 0, nil)
	rs.end()
	host := sp.end()
	if err != nil {
		return sim.Result{}, err
	}
	x.mu.Lock()
	x.points = append(x.points, pointRecord{
		fp: fp, cfg: cfg, host: host.Seconds(), newS: newD.Seconds(),
		res: res, flits: e.Fabric().DeliveredFlits(),
	})
	x.mu.Unlock()
	return res, nil
}

// layer derives the experiments, sim and simulated-count metrics from
// the points of one pass that took wall seconds on workers workers.
func (x *pointExec) layer(workers int, wall float64) map[string]float64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	m := make(map[string]float64)
	var hosts, news []float64
	distinct := make(map[string]bool)
	var busy, full float64
	var created, injected, flits, recoveries, denials int64
	for _, p := range x.points {
		hosts = append(hosts, p.host)
		news = append(news, p.newS)
		distinct[p.fp] = true
		busy += p.host
		full += p.res.AvgFullBuffers
		created += p.res.PacketsCreated
		injected += p.res.PacketsInjected
		flits += p.flits
		recoveries += p.res.Recoveries
		denials += p.res.ThrottleDenials
	}
	sims := float64(len(x.points))
	m["experiments.points"] = float64(x.events.Load())
	m["experiments.sims"] = sims
	if sims > 0 {
		m["experiments.distinct_ratio"] = float64(len(distinct)) / sims
		m["router.full_vc_mean"] = full / sims
	}
	m["experiments.busy_ratio"] = busy / (float64(workers) * wall)
	m["experiments.idle_s"] = float64(workers)*wall - busy
	m["experiments.point_s.p50"] = median(hosts)
	m["experiments.point_s.max"] = percentile(hosts, 100)
	m["sim.new_s"] = median(news)
	addCounts(m, created, injected, flits, recoveries, denials)
	return m
}

// addCounts records the simulated counts a simulator-only change must
// leave identical.
func addCounts(m map[string]float64, created, injected, flits, recoveries, denials int64) {
	m["traffic.packets"] = float64(created)
	m["router.packets_injected"] = float64(injected)
	m["router.flits_delivered"] = float64(flits)
	m["router.recoveries"] = float64(recoveries)
	if offered := denials + injected; offered > 0 {
		m["congestion.denial_ratio"] = float64(denials) / float64(offered)
	}
}

// costliest is the point with the longest host time, for the ledger.
func (x *pointExec) costliest() *ledgerInput {
	x.mu.Lock()
	defer x.mu.Unlock()
	var best *pointRecord
	for i := range x.points {
		if best == nil || x.points[i].host > best.host {
			best = &x.points[i]
		}
	}
	if best == nil {
		return nil
	}
	return &ledgerInput{cfg: best.cfg}
}
