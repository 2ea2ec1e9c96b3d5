package experiments

import (
	"fmt"

	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// ext5Spec sweeps the side-band's per-hop delay h. Larger h means a
// longer gather duration g = (k/2)*h*n, staler global information, and a
// slower control loop (the technical report quantifies this effect; the
// paper assumes h = 2 throughout).
func ext5Spec(s Scale) *Spec {
	var points []Point
	for _, h := range []int{1, 2, 4, 8} {
		cfg := baseConfig(s)
		cfg.Rate = 0.03
		cfg.SidebandHopDelay = h
		cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
		points = append(points, Point{Label: fmt.Sprintf("h=%d (g=%d)", h, cfg.GatherDuration()), Config: cfg})
	}
	return ablationSpec("ext5", "side-band hop delay", points...)
}

// ext6Spec sweeps the number of delivery (consumption) channels per node
// on the uncontrolled network, reproducing Basak & Panda's observation
// that consumption bandwidth bounds saturation throughput.
func ext6Spec(s Scale) *Spec {
	var points []Point
	for _, c := range []int{1, 2, 4} {
		cfg := baseConfig(s)
		cfg.Rate = 0.03
		cfg.DeliveryChannels = c
		points = append(points, Point{Label: fmt.Sprintf("consumption=%d", c), Config: cfg})
	}
	return ablationSpec("ext6", "consumption channels", points...)
}

// ext7Spec compares adaptive-routing port selection policies on the
// uncontrolled network near saturation.
func ext7Spec(s Scale) *Spec {
	var points []Point
	for _, pol := range []router.SelectionPolicy{router.RotatePorts, router.FirstPort, router.MostFreeVCs} {
		cfg := baseConfig(s)
		cfg.Rate = 0.02
		cfg.Selection = pol
		points = append(points, Point{Label: "selection=" + pol.String(), Config: cfg})
	}
	return ablationSpec("ext7", "selection policy", points...)
}

// ext8Spec compares the three information distribution alternatives of
// Section 3.1 — dedicated side-band, meta-packets, and piggybacking — as
// substrates for the self-tuned controller at saturation.
func ext8Spec(s Scale) *Spec {
	var points []Point
	for _, m := range []sideband.Mechanism{sideband.Dedicated, sideband.MetaPacket, sideband.Piggyback} {
		cfg := baseConfig(s)
		cfg.Rate = 0.03
		cfg.SidebandMechanism = m
		cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
		points = append(points, Point{Label: "gather=" + m.String(), Config: cfg})
	}
	return ablationSpec("ext8", "gather mechanism", points...)
}

// ext9Spec produces base-vs-tune rate curves for all four of the paper's
// communication patterns (the technical report's steady-load study: the
// HPCA paper prints only uniform random in full).
func ext9Spec(s Scale) *Spec {
	patterns := []traffic.PatternKind{
		traffic.UniformRandom, traffic.BitReversal, traffic.PerfectShuffle, traffic.Butterfly,
	}
	spec := NewSpec("ext9", "all patterns, base vs tune (recovery)")
	for _, pat := range patterns {
		for _, sch := range []sim.Scheme{{Kind: sim.Base}, {Kind: sim.SelfTuned}} {
			pat, sch := pat, sch
			name := string(pat) + "/" + string(sch.Kind)
			spec.Groups = append(spec.Groups, rateGroup(name, name+" ",
				func(rate float64) sim.Config {
					cfg := baseConfig(s)
					cfg.Pattern = pat
					cfg.Rate = rate
					cfg.Scheme = sch
					return cfg
				}))
		}
	}
	return spec
}

// ext10Spec compares wormhole against virtual cut-through switching
// (buffers sized to hold whole packets) on the base and self-tuned
// configurations at overload. The paper argues its controller applies to
// cut-through networks as well; cut-through contains blocked packets
// inside single routers, so tree saturation is milder but still present
// once router buffers fill.
func ext10Spec(s Scale) *Spec {
	cases := []struct {
		name      string
		switching router.Switching
		scheme    sim.Scheme
	}{
		{"wormhole/base", router.Wormhole, sim.Scheme{Kind: sim.Base}},
		{"wormhole/tune", router.Wormhole, sim.Scheme{Kind: sim.SelfTuned}},
		{"cutthrough/base", router.CutThrough, sim.Scheme{Kind: sim.Base}},
		{"cutthrough/tune", router.CutThrough, sim.Scheme{Kind: sim.SelfTuned}},
	}
	var points []Point
	for _, c := range cases {
		cfg := baseConfig(s)
		cfg.Rate = 0.04
		cfg.Switching = c.switching
		cfg.Scheme = c.scheme
		if c.switching == router.CutThrough {
			cfg.BufDepth = cfg.PacketLength // whole-packet buffers
		}
		points = append(points, Point{Label: c.name, Config: cfg})
	}
	return ablationSpec("ext10", "wormhole vs cut-through", points...)
}

// ext11Spec compares the paper's scheme against both local baselines it
// cites — ALO (Baydal et al.) and busy-VC counting (Lopez et al.) — at
// overload.
func ext11Spec(s Scale) *Spec {
	schemes := []sim.Scheme{
		{Kind: sim.Base},
		{Kind: sim.BusyVC},
		{Kind: sim.ALO},
		{Kind: sim.SelfTuned},
	}
	var points []Point
	for _, sch := range schemes {
		cfg := baseConfig(s)
		cfg.Rate = 0.04
		cfg.Scheme = sch
		points = append(points, Point{Label: string(sch.Kind), Config: cfg})
	}
	return ablationSpec("ext11", "local baselines vs tune", points...)
}

// ext12Spec runs base vs tune on an 8-ary 3-cube (512 nodes), checking
// the controller generalizes across network dimensionality as the
// paper's k-ary n-cube framing implies. The tuning period is three
// gather durations of the 3-cube's side-band (g = 4*2*3 = 24 cycles).
func ext12Spec(s Scale) *Spec {
	var points []Point
	for _, sch := range []sim.Scheme{{Kind: sim.Base}, {Kind: sim.SelfTuned}} {
		cfg := baseConfig(s)
		cfg.K, cfg.N = 8, 3
		cfg.Rate = 0.05
		cfg.Scheme = sch
		points = append(points, Point{Label: "8-ary 3-cube/" + string(sch.Kind), Config: cfg})
	}
	return ablationSpec("ext12", "8-ary 3-cube", points...)
}
