package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for perfbench when the smoke
// test's setup probes re-execute it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{2000, 99}, {1000, 99}, {500, 98}, {100, 90}, {20, 50}, {3, 50}, {0, 99},
	} {
		if got := tailQuantile(c.n, 99); !near(got, c.want) {
			t.Errorf("tailQuantile(%d, 99) = %g, want %g", c.n, got, c.want)
		}
	}
	// The chosen percentile leaves at least minBeyond samples above it.
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, q := tail(xs, 99)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if q != 96 || beyond < minBeyond {
		t.Errorf("tail of 250 samples: q=%g value=%g with %d beyond", q, v, beyond)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2, 90: 4.6} {
		if got := percentile(xs, q); !near(got, want) {
			t.Errorf("percentile(%g) = %g, want %g", q, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

// Expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30}, 10, 30},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestStripTiming(t *testing.T) {
	in := "==== fig1 ====\nrate 0.01 (base)\n(fig1 in 12s)\n\n==== ext11 ====\n(ext11 in 1m3s)\n(not a timing line)\n"
	want := "==== fig1 ====\nrate 0.01 (base)\n\n==== ext11 ====\n(not a timing line)\n"
	if got := string(stripTiming([]byte(in))); got != want {
		t.Errorf("stripTiming:\n%q\nwant\n%q", got, want)
	}
	a, err := reportDigest([]byte("x\n(fig2 in 3s)\n"), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := reportDigest([]byte("x\n(fig2 in 41s)\n"), t.TempDir())
	if a != b {
		t.Error("digests differ only by a timing line")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "experiments.regen", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "sim.run", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	if got := self["experiments"] * 1e9; !near(got, 100-40-10) {
		t.Errorf("experiments self = %g ns, want 50", got)
	}
	if got := self["sim"] * 1e9; !near(got, 20+30+30) {
		t.Errorf("sim self = %g ns, want 80", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the names this program prints in
// step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}

// TestSmoke drives every workload, untraced and traced, through the
// command's own entry point at a tiny size: pinned digests must match,
// the setup probes must run, and the ledger's replica must agree with
// the engine.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Traces land under the working directory; keep them out of the tree.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(wd) }()
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke"}
			if code := run(args); code != 0 {
				t.Errorf("%s --trace %s exited %d", name, trace, code)
			}
		}
	}
}

func TestReplicaMatchesEngine(t *testing.T) {
	for _, cfg := range []struct {
		name string
		in   ledgerInput
	}{
		{"torus", ledgerInput{cfg: torusConfig(3, true, 2)}},
		{"serve-tune", ledgerInput{cfg: serveConfig(60, true)}},
		{"serve-alo", ledgerInput{cfg: serveConfig(20, true)}},
		{"serve-busyvc", ledgerInput{cfg: serveConfig(40, true)}},
	} {
		m, err := runLedger(cfg.in)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if m["ledger.diverged"] != 0 {
			t.Errorf("%s: replica diverged from the engine", cfg.name)
		}
	}
}
