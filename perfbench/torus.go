package main

import (
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// torusSeeds is how many simulation seeds have pinned digests; the
// workload seed picks one of them.
const torusSeeds = 8

// Offered loads of the bursty schedule's two phases, in
// packets/node/cycle: well below, then well past, the 16-ary 3-cube's
// saturation.
const (
	torusLowRate  = 0.002
	torusHighRate = 0.03
)

// torusSimSeed maps the workload seed onto the pinned seeds.
func torusSimSeed(seed int64) int64 {
	return 1 + int64(uint64(seed)%torusSeeds)
}

// torusConfig is one tune point on the 16-ary 3-cube (4096 nodes),
// sharded over workers, whose schedule alternates a low-load phase with
// a past-saturation phase: warm-up is the first low phase, measurement
// the following high, low and high phases.
func torusConfig(simSeed int64, smoke bool, workers int) sim.Config {
	phase := int64(300)
	cfg := sim.NewConfig()
	cfg.K, cfg.N = 16, 3
	if smoke {
		cfg.K, phase = 8, 60
	}
	cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
	cfg.ShardWorkers = workers
	bernoulli := func(p float64) traffic.PhaseSpec {
		return traffic.PhaseSpec{Duration: phase, Pattern: traffic.UniformRandom,
			Process: traffic.ProcessSpec{Kind: traffic.BernoulliProcess, P: p}}
	}
	cfg.ScheduleSpec = &traffic.ScheduleSpec{Loop: true,
		Phases: []traffic.PhaseSpec{bernoulli(torusLowRate), bernoulli(torusHighRate)}}
	cfg.WarmupCycles = phase
	cfg.MeasureCycles = 3 * phase
	cfg.Seed = simSeed
	return cfg
}

// torusSetup builds the point's engine: the arenas of 4096 routers and
// the shard partition.
func torusSetup(o *options) (func(), error) {
	e, err := sim.New(torusConfig(torusSimSeed(o.seed), o.smoke, o.workers))
	if err != nil {
		return nil, err
	}
	return e.Close, nil
}

func torusRun(o *options, tr *tracer, budget time.Duration) (*outcome, error) {
	simSeed := torusSimSeed(o.seed)
	cfg := torusConfig(simSeed, o.smoke, o.workers)
	want := o.pins.Torus[sizeName(o.smoke)][simSeed-1]
	spec := experiments.NewSpec("torus4096-bursty", "")
	spec.AddGroup("", experiments.Point{Label: "tune bursty", Config: cfg})
	oc := &outcome{}
	var x *pointExec
	n := 0
	_ = repeat(budget, func() error {
		n++
		runner := experiments.Runner{Workers: 1}
		if tr != nil {
			x = &pointExec{tr: tr, trace: "point-" + strconv.Itoa(n)}
			runner.Remote = x
			runner.OnPoint = x.onPoint
		}
		oc.attempted++
		var res [][]sim.Result
		err := timeUnit(oc, func() error {
			var err error
			res, err = runner.RunSpec(spec)
			return err
		})
		if err != nil {
			oc.fail("torus4096-bursty: %v", err)
			return err
		}
		oc.jobs = append(oc.jobs, oc.walls[len(oc.walls)-1]*1e3)
		oc.nodeCycles += nodeCycles(cfg)
		data, err := json.Marshal(res[0][0])
		if err != nil {
			oc.fail("torus4096-bursty: %v", err)
			return err
		}
		if got := digestOf(data); got != want {
			oc.fail("torus4096-bursty seed %d result digest %s, pinned %s", simSeed, got, want)
		}
		return nil
	})
	if x != nil {
		oc.layer = x.layer(1, oc.walls[len(oc.walls)-1])
		oc.costliest = &ledgerInput{cfg: cfg}
	}
	return oc, nil
}
