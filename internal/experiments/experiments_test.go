package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sim"
)

// tiny is the smallest scale that still exercises every entry end to
// end (the 256-node network needs a few thousand cycles of signal).
var tiny = Scale{Warmup: 500, Measure: 2_500, BurstLow: 600, BurstHigh: 900}

// keep trims a grid to the points pred accepts, dropping emptied groups.
func keep(pred func(Point) bool) func(*Spec) {
	return func(spec *Spec) {
		var groups []Group
		for _, g := range spec.Groups {
			var pts []Point
			for _, p := range g.Points {
				if pred(p) {
					pts = append(pts, p)
				}
			}
			if len(pts) > 0 {
				g.Points = pts
				groups = append(groups, g)
			}
		}
		spec.Groups = groups
	}
}

// keepRates trims a rate-sweep grid to the given offered loads.
func keepRates(rates ...float64) func(*Spec) {
	return keep(func(p Point) bool { return slices.Contains(rates, p.Config.Rate) })
}

// atRate moves every point of a grid to one offered load.
func atRate(rate float64) func(*Spec) {
	return func(spec *Spec) {
		for _, g := range spec.Groups {
			for pi := range g.Points {
				g.Points[pi].Config.Rate = rate
			}
		}
	}
}

// tinySpecOf builds the named entry's grid at s and lets edit reshape it.
func tinySpecOf(t *testing.T, name string, s Scale, edit func(*Spec)) *Spec {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s: not registered", name)
	}
	spec := e.Spec(s)
	if edit != nil {
		edit(spec)
	}
	return spec
}

// runTiny runs tinySpecOf's grid on the default runner.
func runTiny(t *testing.T, name string, s Scale, edit func(*Spec)) (*Spec, [][]sim.Result) {
	t.Helper()
	spec := tinySpecOf(t, name, s, edit)
	grouped, err := Runner{}.RunSpec(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return spec, grouped
}

// curveRows runs the named rate-sweep entry and returns its curves.
func curveRows(t *testing.T, name string, s Scale, edit func(*Spec)) []Curve {
	t.Helper()
	spec, grouped := runTiny(t, name, s, edit)
	return specCurves(spec.Groups, grouped)
}

// ablationRows runs the named ablation at one rate and returns its rows.
func ablationRows(t *testing.T, name string, s Scale, rate float64) []AblationPoint {
	t.Helper()
	return ablationPoints(runTiny(t, name, s, atRate(rate)))
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := map[[2]bool]core.Decision{
		{true, true}:   core.Decrement,
		{true, false}:  core.Decrement,
		{false, true}:  core.Increment,
		{false, false}: core.NoChange,
	}
	for _, r := range rows {
		if got := want[[2]bool{r.Drop, r.Throttling}]; r.Decision != got {
			t.Errorf("drop=%v throttling=%v: decision %v, want %v", r.Drop, r.Throttling, r.Decision, got)
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tinyRates := []float64{0.005, 0.02}
	curves := curveRows(t, "fig1", tiny, keepRates(tinyRates...))
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) != len(tinyRates) {
			t.Fatalf("%s: %d points", c.Name, len(c.Points))
		}
		for i, p := range c.Points {
			if p.Rate != tinyRates[i] {
				t.Errorf("%s point %d: rate %v, want %v", c.Name, i, p.Rate, tinyRates[i])
			}
			if p.Accepted <= 0 {
				t.Errorf("%s rate %v: zero throughput", c.Name, p.Rate)
			}
		}
	}
	// Butterfly saturates earlier than random: at the overload rate it
	// accepts less.
	random, butterfly := curves[0], curves[1]
	if random.Name != "random" || butterfly.Name != "butterfly" {
		t.Fatalf("curve names: %s, %s", random.Name, butterfly.Name)
	}
	if butterfly.Points[1].Accepted >= random.Points[1].Accepted {
		t.Errorf("butterfly (%v) should saturate below random (%v)",
			butterfly.Points[1].Accepted, random.Points[1].Accepted)
	}
}

func TestFig2Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	spec, grouped := runTiny(t, "fig2", tiny, keepRates(0.005, 0.02))
	var out bytes.Buffer
	if err := reportFig2(RunContext{Out: &out}, spec, grouped); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 2+2 {
		t.Fatalf("wrong point count in report:\n%s", out.String())
	}
	low, high := grouped[0][0], grouped[0][1]
	if high.AvgFullBuffers <= low.AvgFullBuffers {
		t.Errorf("full buffers should rise with load: %v then %v", low.AvgFullBuffers, high.AvgFullBuffers)
	}
}

func TestFig3CurveNames(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	spec, grouped := runTiny(t, "fig3", tiny, keep(func(p Point) bool {
		return p.Config.Mode == router.Recovery && p.Config.Rate == 0.005
	}))
	dir := t.TempDir()
	var out bytes.Buffer
	if err := reportFig3(RunContext{Out: &out, CSVDir: dir}, spec, grouped); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "fig3: overall performance, recovery\n") {
		t.Errorf("report title: %q", out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3_recovery.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(data)), "\n")[1:]
	names := []string{"base", "alo", "tune"}
	if len(rows) != len(names) {
		t.Fatalf("csv rows = %d, want %d", len(rows), len(names))
	}
	for i, row := range rows {
		if c := strings.SplitN(row, ",", 2)[0]; c != names[i] {
			t.Errorf("curve %d = %s, want %s", i, c, names[i])
		}
	}
}

func TestFig4TracesDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	spec, grouped := runTiny(t, "fig4", Scale{Warmup: 0, Measure: 6_000}, nil)
	traces, err := fig4Traces(spec, grouped)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("traces = %d", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Cycle) == 0 || len(tr.Cycle) != len(tr.Threshold) || len(tr.Cycle) != len(tr.Throughput) {
			t.Fatalf("%s: malformed trace", tr.Name)
		}
	}
	if traces[0].Name != "tune-hillclimb" || traces[1].Name != "tune" {
		t.Errorf("trace names: %s, %s", traces[0].Name, traces[1].Name)
	}
}

func TestFig5CurveCount(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	curves := curveRows(t, "fig5", tiny, keepRates(0.02))
	if len(curves) != 8 { // 2 patterns x 4 schemes
		t.Fatalf("curves = %d", len(curves))
	}
}

func TestFig6Schedule(t *testing.T) {
	rows, err := fig6Rows(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Pattern != "random" || rows[7].Pattern != "butterfly" {
		t.Errorf("burst order wrong: %+v", rows)
	}
	if rows[1].Rate <= rows[0].Rate {
		t.Error("bursts should be higher load")
	}
	var want int64
	for _, r := range rows {
		want += r.EndCycle - r.StartCycle
	}
	if fig6Schedule(tiny).TotalDuration() != want {
		t.Error("schedule duration mismatch")
	}
}

func TestFig7SeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	spec, grouped := runTiny(t, "fig7", tiny, keep(func(p Point) bool {
		return p.Config.Mode == router.Recovery
	}))
	series := fig7Series(spec.Groups, grouped)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Cycle) == 0 || len(s.Cycle) != len(s.Throughput) {
			t.Fatalf("%s: malformed series", s.Scheme)
		}
	}
}

func TestExtDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	if pts := ablationRows(t, "ext1", tiny, 0.02); len(pts) != 2 {
		t.Errorf("ext1: %d", len(pts))
	}
	if pts := ablationRows(t, "ext4", tiny, 0.02); len(pts) != 2 {
		t.Errorf("ext4: %d", len(pts))
	}
}

func TestPrintAndCSVFormats(t *testing.T) {
	curves := []Curve{{Name: "x", Points: []RatePoint{{Rate: 0.01, Accepted: 0.2, Latency: 55, Recov: 3, Full: 12}}}}
	var buf bytes.Buffer
	PrintCurves(&buf, "title", curves)
	if !strings.Contains(buf.String(), "title") || !strings.Contains(buf.String(), "0.0100") {
		t.Errorf("print output: %q", buf.String())
	}
	buf.Reset()
	if err := WriteCurvesCSV(&buf, curves); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 2 {
		t.Errorf("csv lines: %v", lines)
	}
	buf.Reset()
	PrintTable1(&buf, table1())
	if !strings.Contains(buf.String(), "decrement") {
		t.Error("table1 output missing decisions")
	}
	buf.Reset()
	if err := WriteFig2CSV(&buf, []Fig2Point{{Rate: 1, FullBuffers: 2, Throughput: 3}}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	tr := []Fig4Trace{{Name: "t", Cycle: []int64{96}, Threshold: []float64{300}, Throughput: []float64{0.1}}}
	if err := WriteFig4CSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "t,96,300,0.1") {
		t.Errorf("fig4 csv: %q", buf.String())
	}
	buf.Reset()
	fs := []Fig7Series{{Scheme: "base", Cycle: []int64{0}, Throughput: []float64{0.5}}}
	if err := WriteFig7CSV(&buf, fs); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintFig2(&buf, []Fig2Point{{Rate: 1, FullBuffers: 2, Throughput: 3}})
	PrintFig6(&buf, []Fig6Row{{StartCycle: 0, EndCycle: 5, Pattern: "p", Rate: 0.1}})
	PrintFig7(&buf, fs)
	PrintAblation(&buf, "a", []AblationPoint{{Name: "n", Accepted: 1, Latency: 2}})
	if buf.Len() == 0 {
		t.Error("printers produced nothing")
	}
}

func TestExtensionDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for name, want := range map[string]int{"ext5": 4, "ext6": 3, "ext7": 3, "ext8": 3} {
		if pts := ablationRows(t, name, tiny, 0.02); len(pts) != want {
			t.Errorf("%s: %d rows, want %d", name, len(pts), want)
		}
	}
	if curves := curveRows(t, "ext9", tiny, keepRates(0.02)); len(curves) != 8 {
		t.Errorf("ext9: %d", len(curves))
	}
}

func TestExtensionDriversDefaultRates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// The Section 4.1 ablations at a short scale and a non-default rate.
	if pts := ablationRows(t, "ext2", Scale{Warmup: 200, Measure: 1_000}, 0.01); len(pts) != 5 {
		t.Errorf("ext2: %d", len(pts))
	}
	if pts := ablationRows(t, "ext3", Scale{Warmup: 200, Measure: 1_000}, 0.01); len(pts) != 5 {
		t.Errorf("ext3: %d", len(pts))
	}
}

func TestExt10Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	if pts := ablationRows(t, "ext10", tiny, 0.02); len(pts) != 4 {
		t.Fatalf("ext10: %d", len(pts))
	}
}

func TestExt11And12Drivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	if pts := ablationRows(t, "ext11", tiny, 0.02); len(pts) != 4 {
		t.Errorf("ext11: %d", len(pts))
	}
	if pts := ablationRows(t, "ext12", Scale{Warmup: 200, Measure: 1_000}, 0.02); len(pts) != 2 {
		t.Errorf("ext12: %d", len(pts))
	}
}

// Entry.Run executes an entry's whole grid as one job, so point events
// index the merged two-mode grid fig7 declares: one Total across both
// deadlock modes and every index exactly once.
func TestEntryRunPointEventsSpanJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e, _ := Lookup("fig7")
	want := e.Spec(registryGoldenScale).NumPoints()
	var mu sync.Mutex
	seen := make([]int, want)
	var bad []PointEvent
	r := Runner{OnPoint: func(ev PointEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Total != want || ev.Index < 0 || ev.Index >= want {
			bad = append(bad, ev)
			return
		}
		seen[ev.Index]++
	}}
	if err := e.Run(RunContext{Runner: r, Scale: registryGoldenScale, Out: io.Discard}); err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Errorf("events outside a %d-point job: %+v", want, bad)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("point %d observed %d times, want once", i, n)
		}
	}
}
