package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// PrintCurves writes rate-sweep curves as an aligned text table, one row
// per (curve, rate) pair — the same rows the paper's rate-axis figures
// plot.
func PrintCurves(w io.Writer, title string, curves []Curve) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-24s %10s %12s %10s %8s %10s\n",
		"curve", "rate", "accepted", "latency", "recov", "fullbufs")
	for _, c := range curves {
		for _, p := range c.Points {
			fmt.Fprintf(w, "%-24s %10.4f %12.4f %10.1f %8d %10.1f\n",
				c.Name, p.Rate, p.Accepted, p.Latency, p.Recov, p.Full)
		}
	}
}

// WriteCurvesCSV writes the curves in long form
// (curve,rate,accepted,latency,recoveries,fullbuffers).
func WriteCurvesCSV(w io.Writer, curves []Curve) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"curve", "rate", "accepted_flits_per_node_cycle",
		"avg_network_latency_cycles", "recoveries", "mean_full_buffers"}); err != nil {
		return err
	}
	for _, c := range curves {
		for _, p := range c.Points {
			rec := []string{
				c.Name,
				strconv.FormatFloat(p.Rate, 'g', -1, 64),
				strconv.FormatFloat(p.Accepted, 'g', -1, 64),
				strconv.FormatFloat(p.Latency, 'g', -1, 64),
				strconv.FormatInt(p.Recov, 10),
				strconv.FormatFloat(p.Full, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// PrintFig2 writes the throughput-vs-full-buffers hill.
func PrintFig2(w io.Writer, pts []Fig2Point) {
	fmt.Fprintf(w, "fig2: throughput vs full buffers (base, recovery)\n")
	fmt.Fprintf(w, "%10s %14s %14s\n", "rate", "full_buffers", "throughput")
	for _, p := range pts {
		fmt.Fprintf(w, "%10.4f %14.1f %14.4f\n", p.Rate, p.FullBuffers, p.Throughput)
	}
}

// WriteFig2CSV writes the Figure 2 points.
func WriteFig2CSV(w io.Writer, pts []Fig2Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rate", "mean_full_buffers", "throughput_flits_per_node_cycle"}); err != nil {
		return err
	}
	for _, p := range pts {
		if err := cw.Write([]string{
			strconv.FormatFloat(p.Rate, 'g', -1, 64),
			strconv.FormatFloat(p.FullBuffers, 'g', -1, 64),
			strconv.FormatFloat(p.Throughput, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// PrintTable1 writes the tuning decision table.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "table1: tuning decision table\n")
	fmt.Fprintf(w, "%-22s %-22s %s\n", "drop_in_bandwidth>25%", "currently_throttling", "decision")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22v %-22v %s\n", r.Drop, r.Throttling, r.Decision)
	}
}

// WriteFig4CSV writes the traces in long form.
func WriteFig4CSV(w io.Writer, traces []Fig4Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"scheme", "cycle", "threshold_buffers", "throughput_flits_per_node_cycle"}); err != nil {
		return err
	}
	for _, tr := range traces {
		for i := range tr.Cycle {
			if err := cw.Write([]string{
				tr.Name,
				strconv.FormatInt(tr.Cycle[i], 10),
				strconv.FormatFloat(tr.Threshold[i], 'g', -1, 64),
				strconv.FormatFloat(tr.Throughput[i], 'g', -1, 64),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// PrintFig6 writes the bursty load schedule.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintf(w, "fig6: offered bursty load\n")
	fmt.Fprintf(w, "%12s %12s %-14s %12s\n", "start", "end", "pattern", "rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%12d %12d %-14s %12.5f\n", r.StartCycle, r.EndCycle, r.Pattern, r.Rate)
	}
}

// PrintFig7 writes per-scheme bursty throughput summaries and the
// latency averages the paper quotes.
func PrintFig7(w io.Writer, series []Fig7Series) {
	for _, s := range series {
		fmt.Fprintf(w, "fig7 %s: avg network latency %.0f cycles, avg total latency %.0f cycles, %d samples\n",
			s.Scheme, s.AvgLatency, s.AvgTotal, len(s.Cycle))
	}
}

// WriteFig7CSV writes the bursty throughput time series in long form.
func WriteFig7CSV(w io.Writer, series []Fig7Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"scheme", "cycle", "throughput_flits_per_node_cycle"}); err != nil {
		return err
	}
	for _, s := range series {
		for i := range s.Cycle {
			if err := cw.Write([]string{
				s.Scheme,
				strconv.FormatInt(s.Cycle[i], 10),
				strconv.FormatFloat(s.Throughput[i], 'g', -1, 64),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// PrintSpecResults writes a generic per-point summary of a spec run:
// the report form for grids that arrive as serialized specs rather than
// through a figure driver. Shared by "stcc run -spec" and the
// stcc-serve job reports, so the CLI and the service render identical
// bytes for the same grid.
func PrintSpecResults(w io.Writer, spec *Spec, grouped [][]sim.Result) {
	title := spec.Name
	if spec.Title != "" {
		title += ": " + spec.Title
	}
	fmt.Fprintln(w, title)
	for gi, g := range spec.Groups {
		if g.Name != "" {
			fmt.Fprintf(w, "-- %s\n", g.Name)
		}
		fmt.Fprintf(w, "%-32s %14s %12s %12s\n", "point", "accepted", "latency", "recoveries")
		for pi, p := range g.Points {
			r := grouped[gi][pi]
			fmt.Fprintf(w, "%-32s %14.4f %12.1f %12d\n",
				p.Label, r.AcceptedFlits, r.AvgNetworkLatency, r.Recoveries)
		}
	}
}

// PrintAblation writes an ablation comparison.
func PrintAblation(w io.Writer, title string, pts []AblationPoint) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-24s %12s %10s\n", "config", "accepted", "latency")
	for _, p := range pts {
		fmt.Fprintf(w, "%-24s %12.4f %10.1f\n", p.Name, p.Accepted, p.Latency)
	}
}
