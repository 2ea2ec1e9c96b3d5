package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// ext13Spec compares the AIMD window controller against the paper's
// self-tuned global scheme and the ALO local baseline across three
// workloads: steady uniform random, steady butterfly, and the Figure 6
// bursty schedule. AIMD reacts per source to DECbit marks from its own
// packets, so it needs no side-band at all; the comparison shows what
// that end-to-end feedback loop costs (and buys) relative to global
// full-buffer tuning under each traffic shape. The grid has one group
// per workload, one point per scheme, labelled "<workload>/<scheme>".
func ext13Spec(s Scale) *Spec {
	schemes := []sim.Scheme{
		{Kind: sim.AIMD},
		{Kind: sim.SelfTuned},
		{Kind: sim.ALO},
	}
	spec := NewSpec("ext13", "controller zoo: aimd vs tune vs alo")
	for _, pat := range []traffic.PatternKind{traffic.UniformRandom, traffic.Butterfly} {
		g := Group{Name: string(pat)}
		for _, sch := range schemes {
			cfg := baseConfig(s)
			cfg.Pattern = pat
			cfg.Rate = 0.04
			cfg.Scheme = sch
			g.Points = append(g.Points, Point{
				Label: string(pat) + "/" + string(sch.Kind), Config: cfg,
			})
		}
		spec.Groups = append(spec.Groups, g)
	}
	sched := fig6Schedule(s)
	g := Group{Name: "bursty"}
	for _, sch := range schemes {
		cfg := baseConfig(s)
		cfg.ScheduleSpec = sched
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = sched.TotalDuration()
		cfg.Scheme = sch
		g.Points = append(g.Points, Point{
			Label: "bursty/" + string(sch.Kind), Config: cfg,
		})
	}
	spec.Groups = append(spec.Groups, g)
	return spec
}

// ext14Spec sweeps the side-band hop delay under the notification-based
// controller. Unlike ext5 (where delay only stales the tuner's global
// view), here the hop delay sets the latency of every congestion
// notification and — through the staleness default of two gather
// durations — how long a notified source stays gated, so the sweep
// measures the control loop's sensitivity to its own feedback latency.
func ext14Spec(s Scale) *Spec {
	var points []Point
	for _, h := range []int{1, 2, 4, 8} {
		cfg := baseConfig(s)
		cfg.Rate = 0.04
		cfg.SidebandHopDelay = h
		cfg.Scheme = sim.Scheme{Kind: sim.Notify}
		points = append(points, Point{
			Label: fmt.Sprintf("h=%d (g=%d)", h, cfg.GatherDuration()), Config: cfg,
		})
	}
	return ablationSpec("ext14", "notification hop-delay sensitivity", points...)
}
