// Benchmarks that regenerate every table and figure of the paper's
// evaluation section and every extension study, printing the same rows
// the paper reports, plus micro-benchmarks of the simulator's hot paths.
//
// BenchmarkRegistry runs one sub-benchmark per registry entry, in paper
// order; each performs a full (scaled-down) experiment per iteration, so
// b.N is normally 1:
//
//	go test -bench Registry -benchtime 1x
//	go test -bench Registry/fig3 -benchtime 1x
//
// Set STCC_BENCH_SCALE=quick or =paper to run longer experiments (the
// default "bench" scale reproduces every shape in seconds-to-minutes per
// figure; "paper" runs the published 600k-cycle methodology).
package stcc

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sideband"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// benchScale selects experiment run lengths for BenchmarkRegistry.
func benchScale() experiments.Scale {
	switch os.Getenv("STCC_BENCH_SCALE") {
	case "paper":
		return experiments.Paper
	case "quick":
		return experiments.Quick
	default:
		return experiments.Scale{Warmup: 4_000, Measure: 12_000, BurstLow: 5_000, BurstHigh: 8_000}
	}
}

// printOnce guards the row output so repeated benchmark iterations (or
// -count>1) do not spam the log.
var printOnce sync.Map

func emit(b *testing.B, key string, f func()) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// BenchmarkRegistry regenerates every registry entry — Table 1, Figures
// 1-7 and the extension studies — on every available CPU, printing each
// entry's report the first time it runs.
func BenchmarkRegistry(b *testing.B) {
	for _, name := range experiments.PaperOrder {
		e, _ := experiments.Lookup(name)
		b.Run(name, func(b *testing.B) {
			var out bytes.Buffer
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := e.Run(experiments.RunContext{Scale: benchScale(), Out: &out}); err != nil {
					b.Fatal(err)
				}
			}
			emit(b, name, func() { os.Stdout.Write(out.Bytes()) })
		})
	}
}

// ---- Micro-benchmarks of the simulator's hot paths. ----

// BenchmarkFabricStep measures one network cycle of the bare fabric at
// every benchFabricShapes point. The idle and low cases are where the
// per-node active-set counters pay off (most routers are skipped in
// O(1)); the saturated case checks the bookkeeping does not slow the
// full-scan regime down. Each shape warms up once, on its first round,
// and later rounds continue the same run, so ns/op and allocs/op
// describe the steady-state cycle.
func BenchmarkFabricStep(b *testing.B) {
	for _, s := range benchFabricShapes() {
		var run *fabricRun
		b.Run(s.name, func(b *testing.B) {
			if run == nil {
				run = startFabric(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.step()
			}
		})
		if run != nil {
			run.fab.Close()
		}
	}
}

// benchFabricShapes is fabricShapes plus the 4096-node torus at idle,
// low and saturated load, on one inline shard (w1) and with shard workers
// under the default occupancy-adaptive dispatch (wN), so each pair
// shows what that policy ships on this machine. wN is every CPU, or 8
// on a single-CPU host, where the shards exist but adaptive dispatch
// runs them inline. The gate's torus4096-low is the low w1 row. The
// saturated rows are too slow to warm up inside the allocation gate,
// whose forced-sharded rows already cover the parallel step's scratch.
func benchFabricShapes() []fabricShape {
	wN := runtime.NumCPU()
	if wN < 2 {
		wN = 8
	}
	return append(append([]fabricShape(nil), fabricShapes...),
		fabricShape{"torus4096-idle-w1", 16, 3, 0, 1, 0, torusSteadyStateWarmup, 65536},
		fabricShape{"torus4096-idle-wN", 16, 3, 0, wN, 0, torusSteadyStateWarmup, 65536},
		fabricShape{"torus4096-low-wN", 16, 3, 0.002, wN, 0, torusSteadyStateWarmup, 65536},
		fabricShape{"torus4096-saturated-w1", 16, 3, 0.2, 1, 0, torusSteadyStateWarmup, 65536},
		fabricShape{"torus4096-saturated-wN", 16, 3, 0.2, wN, 0, torusSteadyStateWarmup, 65536},
	)
}

// BenchmarkEngineStep measures a full engine cycle (generation,
// throttling, network step, sampling) at every engineShapes point,
// warmed up once like BenchmarkFabricStep.
func BenchmarkEngineStep(b *testing.B) {
	for _, s := range engineShapes {
		var e *sim.Engine
		b.Run(s.name, func(b *testing.B) {
			if e == nil {
				e = startEngine(b, s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkTopologyMinimalPorts measures adaptive route candidate
// generation.
func BenchmarkTopologyMinimalPorts(b *testing.B) {
	topo := topology.MustNew(16, 2)
	buf := make([]int, 0, 4)
	for i := 0; i < b.N; i++ {
		src := topology.NodeID(i % topo.Nodes())
		dst := topology.NodeID((i * 37) % topo.Nodes())
		buf = topo.MinimalPorts(src, dst, buf[:0])
	}
}

// BenchmarkLinearExtrapolation measures the congestion estimator.
func BenchmarkLinearExtrapolation(b *testing.B) {
	var e core.LinearExtrapolation
	e.OnSnapshot(sideband.Snapshot{Taken: 0, FullBuffers: 100})
	e.OnSnapshot(sideband.Snapshot{Taken: 32, FullBuffers: 200})
	for i := 0; i < b.N; i++ {
		e.Estimate(int64(40 + i%32))
	}
}

// BenchmarkTunerOnPeriod measures one hill-climbing step.
func BenchmarkTunerOnPeriod(b *testing.B) {
	tu := core.MustNewTuner(core.DefaultTunerConfig(3072))
	for i := 0; i < b.N; i++ {
		tu.OnPeriod(float64(1000+i%500), float64(i%800), i%3 == 0)
	}
}

// BenchmarkPatternDest measures destination generation for the paper's
// four patterns.
func BenchmarkPatternDest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []traffic.PatternKind{traffic.UniformRandom, traffic.BitReversal, traffic.PerfectShuffle, traffic.Butterfly} {
		p := traffic.MustPattern(kind, 256)
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Dest(topology.NodeID(i%256), rng)
			}
		})
	}
}

// BenchmarkSimCycleEndToEnd measures a full engine cycle including
// traffic generation, throttling and statistics.
func BenchmarkSimCycleEndToEnd(b *testing.B) {
	cfg := sim.NewConfig()
	cfg.Rate = 0.02
	cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
	cfg.WarmupCycles = 1
	cfg.MeasureCycles = int64(b.N) + 2000
	e, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
