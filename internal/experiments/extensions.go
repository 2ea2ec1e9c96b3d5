package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Table1Row is one cell of the paper's tuning decision table, exercised
// against the real tuner.
type Table1Row struct {
	Drop       bool // bandwidth dropped > 25% vs previous period
	Throttling bool
	Decision   core.Decision
}

// table1 exercises the tuner's decision logic on all four table cells
// and returns what it did, reproducing Table 1.
func table1() []Table1Row {
	var rows []Table1Row
	for _, drop := range []bool{true, false} {
		for _, throttling := range []bool{true, false} {
			cfg := core.DefaultTunerConfig(3072)
			cfg.AvoidLocalMaxima = false // Table 1 is the pure hill climb
			tu := core.MustNewTuner(cfg)
			// Establish a previous-period baseline of 1000.
			tu.OnPeriod(1000, 100, false)
			tput := 1000.0
			if drop {
				tput = 600 // < 75% of the previous period
			}
			tu.OnPeriod(tput, 100, throttling)
			rows = append(rows, Table1Row{Drop: drop, Throttling: throttling, Decision: tu.LastDecision()})
		}
	}
	return rows
}

// reportTable1 prints Table 1; it is analytic, so its grid is empty.
func reportTable1(ctx RunContext, _ *Spec, _ [][]sim.Result) error {
	PrintTable1(ctx.Out, table1())
	return nil
}

// AblationPoint is one configuration of an ablation sweep.
type AblationPoint struct {
	Name     string
	Accepted float64
	Latency  float64
}

// ablationPoints maps a spec's results to named (throughput, latency)
// points — the shape every ablation study shares. Point labels become
// the row names.
func ablationPoints(spec *Spec, grouped [][]sim.Result) []AblationPoint {
	var out []AblationPoint
	for gi, g := range spec.Groups {
		for pi, p := range g.Points {
			res := grouped[gi][pi]
			out = append(out, AblationPoint{Name: p.Label,
				Accepted: res.AcceptedFlits, Latency: res.AvgNetworkLatency})
		}
	}
	return out
}

// reportAblation prints an ablation study as one table titled
// "<name>: <title>".
func reportAblation(ctx RunContext, spec *Spec, grouped [][]sim.Result) error {
	PrintAblation(ctx.Out, spec.Name+": "+spec.Title, ablationPoints(spec, grouped))
	return nil
}

// ablationSpec assembles a one-group spec from (label, config) pairs.
func ablationSpec(name, title string, points ...Point) *Spec {
	spec := NewSpec(name, title)
	spec.Groups = append(spec.Groups, Group{Points: points})
	return spec
}

// ext1Spec compares linear extrapolation against last-value estimation
// near saturation (the paper reports 3-5% throughput from
// extrapolation).
func ext1Spec(s Scale) *Spec {
	var points []Point
	for _, est := range []sim.EstimatorKind{sim.LinearEstimator, sim.LastValueEstimator} {
		cfg := baseConfig(s)
		cfg.Rate = 0.03
		cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned, Estimator: est}
		points = append(points, Point{Label: string(est), Config: cfg})
	}
	return ablationSpec("ext1", "estimator ablation (tune @ saturation)", points...)
}

// ext2Spec sweeps the tuning period (the paper found 32-192 cycles
// performs within a few percent; it uses 96).
func ext2Spec(s Scale) *Spec {
	var points []Point
	for _, period := range []int64{32, 64, 96, 160, 192} {
		cfg := baseConfig(s)
		cfg.Rate = 0.03
		cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned, TuningPeriod: period}
		points = append(points, Point{Label: fmt.Sprintf("period=%d", period), Config: cfg})
	}
	return ablationSpec("ext2", "tuning period sensitivity", points...)
}

// ext3Spec sweeps the tuner's increment/decrement step sizes (the paper
// found 1-4% of all buffers performs within ~4%, slightly better with
// decrement > increment).
func ext3Spec(s Scale) *Spec {
	steps := []struct{ inc, dec float64 }{
		{0.01, 0.01}, {0.01, 0.04}, {0.04, 0.01}, {0.04, 0.04}, {0.02, 0.02},
	}
	var points []Point
	for _, st := range steps {
		cfg := baseConfig(s)
		cfg.Rate = 0.03
		tc := core.DefaultTunerConfig(cfg.TotalBuffers())
		tc.IncrementFraction = st.inc
		tc.DecrementFraction = st.dec
		cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned, Tuner: &tc}
		points = append(points, Point{Label: fmt.Sprintf("inc=%g%%,dec=%g%%", st.inc*100, st.dec*100), Config: cfg})
	}
	return ablationSpec("ext3", "increment/decrement sensitivity", points...)
}

// ext4Spec compares the full-precision side-band against the technical
// report's narrow (9-bit) side-band, which quantizes the transported
// counts.
func ext4Spec(s Scale) *Spec {
	var points []Point
	for _, bits := range []int{0, 9} {
		cfg := baseConfig(s)
		cfg.Rate = 0.03
		cfg.SidebandBits = bits
		cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
		name := "full-precision"
		if bits > 0 {
			name = fmt.Sprintf("%d-bit", bits)
		}
		points = append(points, Point{Label: name, Config: cfg})
	}
	return ablationSpec("ext4", "narrow side-band", points...)
}
