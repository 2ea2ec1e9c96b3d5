package experiments

import (
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/sim"
)

// RunContext carries everything an experiment needs to execute and
// report: the worker pool (and optional result cache) via Runner, the
// run length, the text sink, and an optional CSV directory.
type RunContext struct {
	Runner Runner
	Scale  Scale
	Out    io.Writer
	// CSVDir, when non-empty, receives the experiment's CSV files.
	CSVDir string
}

// csv writes one CSV file into the context's directory, or does nothing
// when no directory is configured.
func (ctx RunContext) csv(name string, write func(w io.Writer) error) error {
	if ctx.CSVDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(ctx.CSVDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

// Entry is one named experiment of the paper's evaluation: the
// declarative grid it simulates (empty for analytic entries like tab1)
// and the report that turns the grid's results into the rows the paper
// prints and the CSV files it plots.
type Entry struct {
	// Name is the registry key ("fig3", "ext11", ...).
	Name string
	// Title is the one-line description printed by "stcc list".
	Title string
	// About is the longer description printed by "stcc describe".
	About string
	// Spec builds the experiment's serializable grid at a scale.
	Spec func(s Scale) *Spec
	// Report writes the experiment's text rows to ctx.Out and its CSV
	// files to ctx.CSVDir, from results grouped like spec. It reads
	// rates, modes and names from the spec's points.
	Report func(ctx RunContext, spec *Spec, grouped [][]sim.Result) error
}

// Run executes the entry's whole grid at ctx.Scale as one job on
// ctx.Runner, then writes its report.
func (e Entry) Run(ctx RunContext) error {
	spec := e.Spec(ctx.Scale)
	grouped, err := ctx.Runner.RunSpec(spec)
	if err != nil {
		return err
	}
	return e.Report(ctx, spec, grouped)
}

// Lookup returns the named experiment.
func Lookup(name string) (Entry, bool) {
	for _, e := range entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names returns every registered experiment name in sorted order.
func Names() []string {
	names := append([]string(nil), PaperOrder...)
	sort.Strings(names)
	return names
}

// PaperOrder is the curated presentation order used by
// "stcc-paper -exp all": the paper's own sequence (table first, then
// figures, then the extension studies), which is the order of entries.
var PaperOrder = func() []string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}()

// emptySpec is the Spec builder for entries that run no simulations.
func emptySpec(name, title string) func(Scale) *Spec {
	return func(Scale) *Spec { return NewSpec(name, title) }
}

// entries is the registry, in paper order.
var entries = []Entry{
	{Name: "tab1", Title: "tuning decision table",
		About: "Drives the real tuner through all four (drop, throttling) cells " +
			"and reports its decisions; reproduces Table 1 exactly. Analytic — no simulations.",
		Spec: emptySpec("tab1", "tuning decision table"), Report: reportTable1},
	{Name: "fig1", Title: "saturation collapse (base, recovery)",
		About: "Rate sweeps of the uncontrolled network for uniform random and " +
			"butterfly: delivered bandwidth collapses past the pattern-dependent " +
			"saturation point.",
		Spec: fig1Spec, Report: reportCurves},
	{Name: "fig2", Title: "throughput vs full buffers (base, recovery)",
		About: "Sweeps offered load and records where each run settles in " +
			"(full buffers, throughput) space: the hill the self-tuner climbs.",
		Spec: fig2Spec, Report: reportFig2},
	{Name: "fig3", Title: "overall performance: base vs ALO vs tune, both deadlock modes",
		About: "Throughput and latency vs offered load for Base, ALO and Tune, " +
			"under deadlock recovery and deadlock avoidance.",
		Spec: fig3Spec, Report: reportFig3},
	{Name: "fig4", Title: "self-tuning operation: threshold and throughput vs time",
		About: "Hill climbing only vs hill climbing plus local-maximum avoidance " +
			"on the avoidance configuration under a fixed regeneration interval; " +
			"the avoidance mechanism's sawtooth sustains throughput.",
		Spec: fig4Spec, Report: reportFig4},
	{Name: "fig5", Title: "static thresholds vs self-tuning (recovery)",
		About: "Static global thresholds 500/250/50 against the self-tuned " +
			"controller on uniform random and butterfly: no single static " +
			"threshold suits both patterns.",
		Spec: fig5Spec, Report: reportCurves},
	{Name: "fig6", Title: "offered bursty load schedule",
		About: "Prints the alternating low-load / high-burst workload (random, " +
			"bit-reversal, shuffle, butterfly bursts) that Figure 7 consumes. " +
			"Analytic — no simulations.",
		Spec: emptySpec("fig6", "offered bursty load"), Report: reportFig6},
	{Name: "fig7", Title: "performance under bursty load, both deadlock modes",
		About: "Base, ALO and Tune under the Figure 6 bursty workload: Tune " +
			"delivers steady bandwidth across bursts with the lowest latency.",
		Spec: fig7Spec, Report: reportFig7},
	{Name: "ext1", Title: "estimator ablation (tune @ saturation)",
		About: "Linear extrapolation vs last-value estimation of the global " +
			"full-buffer count (the paper credits extrapolation with 3-5%).",
		Spec: ext1Spec, Report: reportAblation},
	{Name: "ext2", Title: "tuning period sensitivity",
		About: "Sweeps the tuning period 32-192 cycles (the paper uses 96).",
		Spec:  ext2Spec, Report: reportAblation},
	{Name: "ext3", Title: "increment/decrement sensitivity",
		About: "Sweeps the tuner's step sizes around the paper's 1%/4% choice.",
		Spec:  ext3Spec, Report: reportAblation},
	{Name: "ext4", Title: "narrow side-band",
		About: "Full-precision vs 9-bit quantized side-band counts.",
		Spec:  ext4Spec, Report: reportAblation},
	{Name: "ext5", Title: "side-band hop delay",
		About: "Sweeps the side-band hop delay h (gather duration g = (k/2)*h*n): " +
			"staler global information slows the control loop.",
		Spec: ext5Spec, Report: reportAblation},
	{Name: "ext6", Title: "consumption channels",
		About: "Sweeps delivery channels per node on the uncontrolled network " +
			"(Basak & Panda: consumption bandwidth bounds saturation).",
		Spec: ext6Spec, Report: reportAblation},
	{Name: "ext7", Title: "selection policy",
		About: "Compares adaptive-routing port selection policies near saturation.",
		Spec:  ext7Spec, Report: reportAblation},
	{Name: "ext8", Title: "gather mechanism",
		About: "Dedicated side-band vs meta-packets vs piggybacking as the " +
			"controller's information substrate (Section 3.1 alternatives).",
		Spec: ext8Spec, Report: reportAblation},
	{Name: "ext9", Title: "all patterns, base vs tune (recovery)",
		About: "Base-vs-tune rate curves for all four of the paper's " +
			"communication patterns (the technical report's steady-load study).",
		Spec: ext9Spec, Report: reportCurves},
	{Name: "ext10", Title: "wormhole vs cut-through",
		About: "Base and Tune on wormhole vs virtual cut-through switching " +
			"(whole-packet buffers) at overload.",
		Spec: ext10Spec, Report: reportAblation},
	{Name: "ext11", Title: "local baselines vs tune",
		About: "Both cited local baselines — busy-VC counting and ALO — against " +
			"the self-tuned global scheme at overload.",
		Spec: ext11Spec, Report: reportAblation},
	{Name: "ext12", Title: "8-ary 3-cube",
		About: "Base vs Tune on an 8-ary 3-cube (512 nodes): the controller " +
			"generalizes across network dimensionality.",
		Spec: ext12Spec, Report: reportAblation},
	{Name: "ext13", Title: "controller zoo: aimd vs tune vs alo",
		About: "The AIMD window controller (per-source end-to-end feedback from " +
			"DECbit marks, no side-band) against the self-tuned global scheme " +
			"and the ALO local baseline, on uniform random, butterfly and the " +
			"Figure 6 bursty workload.",
		Spec: ext13Spec, Report: reportAblation},
	{Name: "ext14", Title: "notification hop-delay sensitivity",
		About: "Sweeps the side-band hop delay under the notification-based " +
			"controller: the delay sets both notification latency and the " +
			"staleness window gating sources, so it directly scales the " +
			"feedback loop the controller closes.",
		Spec: ext14Spec, Report: reportAblation},
}
