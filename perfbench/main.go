// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks every output against a pinned
// digest, and prints its metrics as one JSON line: the end-to-end
// metrics, or with --trace 1 the per-layer ledger taken from spans
// around calls into each module's public functions. run.sh builds it
// from source and runs it from the repository root:
//
//	bash perfbench/run.sh --workload paper-regen --seed 1 --seconds 30 --trace 0
//
// BENCHMARK.json names the workloads, why each was chosen, and every
// metric with its unit. --pin rewrites perfbench/digests.json from the
// current tree; --smoke runs every workload at a tiny size.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool
	workers  int    // worker threads and client connections: nproc
	dir      string // this process's scratch directory, removed at exit
	pins     pinned
}

// outcome is what one timed pass of a workload measured.
type outcome struct {
	attempted, failed int
	walls             []float64 // host seconds per timed unit
	cpus              []float64 // CPU seconds per timed unit
	jobs              []float64 // milliseconds per job, as its user waits
	nodeCycles        float64   // simulated node-cycles requested by all units
	layer             map[string]float64
	costliest         *ledgerInput // the point the cycle ledger replays
}

func (oc *outcome) fail(format string, args ...any) {
	oc.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (oc *outcome) timed() float64 {
	var s float64
	for _, w := range oc.walls {
		s += w
	}
	return s
}

// perUnit is the host time per unit of work: per regeneration or point,
// or per job where the workload is a stream of jobs.
func (oc *outcome) perUnit(stream bool) float64 {
	if stream && len(oc.jobs) > 0 {
		return oc.timed() / float64(len(oc.jobs))
	}
	return median(oc.walls)
}

// workload is one named benchmark input.
type workload struct {
	// setup does everything before the first unit of work, for the
	// setup probe, and returns how to tear it down.
	setup func(o *options) (func(), error)
	// run measures units of work until budget is spent; a non-nil
	// tracer records spans and fills outcome.layer.
	run func(o *options, tr *tracer, budget time.Duration) (*outcome, error)
	// stream marks a workload whose unit of work is a job in a
	// continuous stream rather than one long computation.
	stream bool
}

var workloads = map[string]workload{
	"paper-regen":      {setup: paperSetup, run: paperRun},
	"torus4096-bursty": {setup: torusSetup, run: torusRun},
	"serve-mixed":      {setup: serveSetup, run: serveRun, stream: true},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer must match BENCHMARK.json (a test checks).
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"node_cycles_per_s", "1/s"}, {"cpu_s", "s"},
	{"peak_rss_mb", "MB"}, {"jobs_per_s", "1/s"}, {"job_p50_ms", "ms"}, {"job_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"experiments.points", "count"}, {"experiments.sims", "count"},
	{"experiments.distinct_ratio", "ratio"}, {"experiments.busy_ratio", "ratio"},
	{"experiments.idle_s", "s"}, {"experiments.point_s.p50", "s"}, {"experiments.point_s.max", "s"},
	{"experiments.flight_shared", "count"},
	{"sim.new_s", "s"}, {"sim.step_us.low.p50", "us"}, {"sim.step_us.high.p50", "us"}, {"sim.step_us.p99", "us"},
	{"sideband.tick_ns", "ns"}, {"congestion.tick_ns", "ns"}, {"traffic.generate_ns", "ns"},
	{"congestion.allow_ns", "ns"}, {"router.inject_ns", "ns"}, {"router.step_ns", "ns"},
	{"stats.sample_ns", "ns"}, {"ledger.residual_ns", "ns"}, {"ledger.diverged", "count"},
	{"traffic.packets", "count"}, {"router.packets_injected", "count"}, {"router.flits_delivered", "count"},
	{"router.recoveries", "count"}, {"router.full_vc_mean", "count"}, {"congestion.denial_ratio", "ratio"},
	{"resultcache.get_ms.p50", "ms"}, {"resultcache.put_ms.p50", "ms"}, {"resultcache.gets", "count"},
	{"resultcache.puts", "count"}, {"resultcache.hit_ratio", "ratio"},
	{"server.submit_ms.p50", "ms"}, {"server.queue_wait_ms.p50", "ms"}, {"server.queue_wait_ms.p99", "ms"},
	{"server.shed", "count"}, {"trace.overhead_s", "s"},
}

// setupProbes is how many fresh processes measure setup_s per run.
const setupProbes = 9

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{workers: runtime.NumCPU()}
	fs.StringVar(&o.workload, "workload", "", "paper-regen, torus4096-bursty or serve-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	secs := fs.Int("seconds", 30, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1: report the per-layer ledger instead of end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "run at a tiny size (tests)")
	probe := fs.Bool("setup-probe", false, "internal: set up, print ready, tear down")
	pin := fs.Bool("pin", false, "recompute the pinned digests into perfbench/digests.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seconds = time.Duration(*secs) * time.Second
	o.trace = *traceFlag == 1
	w, ok := workloads[o.workload]
	if (!ok && !*pin) || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper-regen|torus4096-bursty|serve-mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	o.dir = filepath.Join(".bench_build", "work", o.workload+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.dir)
	if *pin {
		return pinMain(o)
	}
	var err error
	if o.pins, err = loadPins(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *probe {
		return setupProbe(o, w)
	}

	st := newStamp(o)
	stampJSON, _ := json.Marshal(st)
	fmt.Printf("# stamp %s\n", stampJSON)
	rep, err := measure(o, w, st)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: exactly these four keys.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// measure runs the workload once in the requested mode.
func measure(o *options, w workload, st stamp) (*report, error) {
	if o.trace {
		return measureTraced(o, w, st)
	}
	setups, err := measureSetup(o)
	if err != nil {
		return nil, err
	}
	oc, err := w.run(o, nil, o.seconds)
	if err != nil {
		return nil, err
	}
	_, peak := usage()
	timed := oc.timed()
	p50 := median(oc.jobs)
	p99, q := tail(oc.jobs, 99)
	vals := map[string]float64{
		"setup_s":           median(setups),
		"wall_s":            median(oc.walls),
		"node_cycles_per_s": oc.nodeCycles / timed,
		"cpu_s":             median(oc.cpus),
		"peak_rss_mb":       peak,
		"jobs_per_s":        float64(len(oc.jobs)) / timed,
		"job_p50_ms":        p50,
		"job_p99_ms":        p99,
	}
	q1, q3 := quartiles(oc.jobs)
	summary, _ := json.Marshal(map[string]any{
		"units": len(oc.walls), "jobs": len(oc.jobs), "job_p99_is_quantile": q,
		"job_q1_ms": q1, "job_q3_ms": q3, "setup_probes": setups,
		"failed_ratio": float64(oc.failed) / float64(max(oc.attempted, 1)),
	})
	fmt.Printf("# summary %s\n", summary)
	return &report{
		Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed,
		Metrics: fill(endToEnd, vals),
	}, nil
}

// measureTraced gives the per-layer ledger: one untraced pass, one
// traced pass (their difference is the tracing overhead), and the cycle
// ledger replayed on the traced pass's costliest point.
func measureTraced(o *options, w workload, st stamp) (*report, error) {
	base, err := w.run(o, nil, o.seconds/3)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	oc, err := w.run(o, tr, o.seconds/3)
	if err != nil {
		return nil, err
	}
	vals := oc.layer
	vals["trace.overhead_s"] = oc.perUnit(w.stream) - base.perUnit(w.stream)
	if oc.costliest != nil {
		led, err := runLedger(*oc.costliest)
		if err != nil {
			return nil, err
		}
		for k, v := range led {
			vals[k] = v
		}
		if led["ledger.diverged"] != 0 {
			fmt.Fprintln(os.Stderr, "perfbench: cycle ledger diverged from the engine; its parts are not comparable")
		}
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	self, err := tr.write(path, st)
	if err != nil {
		return nil, err
	}
	summary, _ := json.Marshal(map[string]any{"trace_file": path, "self_s": self})
	fmt.Printf("# summary %s\n", summary)
	attempted, failed := base.attempted+oc.attempted, base.failed+oc.failed
	return &report{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: fill(perLayer, vals),
	}, nil
}

// repeat runs unit until budget would be exceeded by one more unit of
// the longest length seen so far, and always at least once. Each unit
// starts on a collected heap, so neither its time nor the peak RSS
// depends on how many units came before it.
func repeat(budget time.Duration, unit func() error) error {
	start := time.Now()
	var longest time.Duration
	for {
		runtime.GC()
		t0 := time.Now()
		if err := unit(); err != nil {
			return err
		}
		longest = max(longest, time.Since(t0))
		if time.Since(start)+longest > budget {
			return nil
		}
	}
}

// timeUnit runs fn and appends its host and CPU seconds to oc.
func timeUnit(oc *outcome, fn func() error) error {
	cpu0, _ := usage()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu1, _ := usage()
	oc.walls = append(oc.walls, wall.Seconds())
	oc.cpus = append(oc.cpus, (cpu1 - cpu0).Seconds())
	return err
}

// measureSetup times setupProbes fresh processes from start until the
// workload's first unit of work could begin: process start, package
// initialization and the workload's own set-up.
func measureSetup(o *options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		args := []string{"--setup-probe", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10)}
		if o.smoke {
			args = append(args, "--smoke")
		}
		d, err := probeOnce(exe, args)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func probeOnce(exe string, args []string) (time.Duration, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0)
	_, _ = io.Copy(io.Discard, stdout) // drain so the child never blocks on a full pipe
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("probe printed %q (%v)", line, rerr)
	}
	return d, nil
}

// setupProbe is the child side of measureSetup.
func setupProbe(o *options, w workload) int {
	teardown, err := w.setup(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	fmt.Println("ready")
	teardown()
	return 0
}
