package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"soemt/internal/core"
	"soemt/internal/model"
	"soemt/internal/sim"
	"soemt/internal/stats"
	"soemt/internal/workload"
)

// fLabel renders an enforcement level the way the paper writes it.
func fLabel(f float64) string {
	switch f {
	case 0:
		return "F=0"
	case 0.25:
		return "F=1/4"
	case 0.5:
		return "F=1/2"
	case 1:
		return "F=1"
	default:
		return fmt.Sprintf("F=%.2f", f)
	}
}

// ExpTable3 prints the machine configuration (paper Table 3).
func ExpTable3(w io.Writer, opts Options) error {
	fmt.Fprintln(w, "Table 3: simulated machine parameters")
	fmt.Fprintln(w)
	_, err := sim.Table3(opts.Machine).WriteTo(w)
	return err
}

// ExpTable2 prints the analytical Example 2 (paper Table 2).
func ExpTable2(w io.Writer) error {
	rows, err := model.Table2()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 2: two-thread SOE with and without fairness enforcement")
	fmt.Fprintln(w, "(IPC_no_miss=2.5, Miss_lat=300, Switch_lat=25, IPM=[15000,1000])")
	fmt.Fprintln(w)
	sys := model.Example2System()
	fmt.Fprintf(w, "IPC_ST: thread1=%.3f thread2=%.3f\n\n",
		sys.Threads[0].IPCST(sys.MissLat), sys.Threads[1].IPCST(sys.MissLat))
	t := stats.NewTable("F", "IPSw1", "IPSw2", "IPC_SOE1", "IPC_SOE2",
		"slowdown1", "slowdown2", "fairness", "IPC_SOE")
	for _, row := range rows {
		t.AddRowf(fLabel(row.F),
			fmt.Sprintf("%.0f", row.IPSw[0]), fmt.Sprintf("%.0f", row.IPSw[1]),
			row.IPCSOE[0], row.IPCSOE[1],
			fmt.Sprintf("%.2f", row.Slowdown[0]), fmt.Sprintf("%.2f", row.Slowdown[1]),
			fmt.Sprintf("%.2f", row.Fairness), row.Total)
	}
	_, err = t.WriteTo(w)
	return err
}

// ExpFig3 prints the analytical throughput-vs-F sweep (paper Figure 3).
func ExpFig3(w io.Writer) error {
	cases, err := model.Figure3(21)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 3: effect of fairness enforcement on throughput (analytical model)")
	fmt.Fprintln(w)
	markers := []byte{'o', '+', 'x', '*', '#', '@'}
	var series []plotSeries
	for i, c := range cases {
		series = append(series, plotSeries{
			Label:  c.Label,
			Marker: markers[i%len(markers)],
			Y:      c.DeltaPc,
		})
	}
	fmt.Fprint(w, asciiPlot("throughput delta vs F=0 [%]", cases[0].F, series, 16, 63))
	fmt.Fprintln(w)
	t := stats.NewTable("combination", "delta@F=1/4", "delta@F=1/2", "delta@F=1")
	at := func(c model.Fig3Case, f float64) string {
		best, bd := 0.0, math.Inf(1)
		for i, x := range c.F {
			if d := math.Abs(x - f); d < bd {
				bd, best = d, c.DeltaPc[i]
			}
		}
		return fmt.Sprintf("%+.1f%%", best)
	}
	for _, c := range cases {
		t.AddRow(c.Label, at(c, 0.25), at(c, 0.5), at(c, 1))
	}
	_, err = t.WriteTo(w)
	return err
}

// ExpExample1 demonstrates the starvation problem (paper Example 1 /
// Figure 1) on the gcc:eon pair; see ExpExample1Context.
func ExpExample1(w io.Writer, r *Runner) error {
	return ExpExample1Context(context.Background(), w, r)
}

// ExpExample1Context is ExpExample1 honoring ctx cancellation.
func ExpExample1Context(ctx context.Context, w io.Writer, r *Runner) error {
	pr, err := r.RunPairContext(ctx, Pair{"gcc", "eon"})
	if err != nil {
		return err
	}
	f0 := pr.ByF[0]
	sp := pr.Speedups(0)
	fmt.Fprintln(w, "Example 1: unfair execution in SOE without enforcement (gcc:eon)")
	fmt.Fprintln(w)
	t := stats.NewTable("thread", "IPC_ST", "IPC_SOE", "speedup", "slowdown")
	for i, tr := range f0.Threads {
		t.AddRowf(tr.Name, pr.ST[i], tr.IPC, sp[i], fmt.Sprintf("%.1fx", 1/math.Max(sp[i], 1e-9)))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nachieved fairness (Eq. 4): %.3f\n", pr.Fairness(0))
	fmt.Fprintf(w, "miss-induced switches: %d, total SOE throughput %.3f vs best ST %.3f\n",
		f0.Switches.Miss, f0.IPCTotal, math.Max(pr.ST[0], pr.ST[1]))
	return nil
}

// Fig5Data carries the time series of the detailed gcc:eon run.
type Fig5Data struct {
	Cycles    []float64
	EstST     [2][]float64 // estimated IPC_ST per thread (F=1/4 run)
	RealST    [2]float64   // reference single-thread IPC
	SpeedupsF [2][]float64 // estimated speedups with enforcement (F=1/4)
	Speedups0 [2][]float64 // estimated speedups without enforcement
	FairF     []float64    // achieved per-window fairness, F=1/4
	Fair0     []float64    // achieved per-window fairness, F=0
}

// ExpFig5 reproduces the paper's detailed examination (Figure 5):
// counter-based IPC_ST estimation, per-thread speedups with and
// without enforcement, and achieved fairness over time for gcc:eon at
// F = 1/4. See ExpFig5Context.
func ExpFig5(w io.Writer, r *Runner) (*Fig5Data, error) {
	return ExpFig5Context(context.Background(), w, r)
}

// ExpFig5Context is ExpFig5 honoring ctx cancellation.
func ExpFig5Context(ctx context.Context, w io.Writer, r *Runner) (*Fig5Data, error) {
	pr, err := r.RunPairContext(ctx, Pair{"gcc", "eon"})
	if err != nil {
		return nil, err
	}
	rf := pr.ByF[0.25]
	r0 := pr.ByF[0]
	d := &Fig5Data{RealST: pr.ST}
	n := len(rf.Samples)
	if len(r0.Samples) < n {
		n = len(r0.Samples)
	}
	for i := 0; i < n; i++ {
		sf, s0 := rf.Samples[i], r0.Samples[i]
		d.Cycles = append(d.Cycles, float64(sf.Cycle))
		var spF, sp0 [2]float64
		for t := 0; t < 2; t++ {
			d.EstST[t] = append(d.EstST[t], sf.Threads[t].EstIPCST)
			spF[t] = safeDiv(sf.Threads[t].WindowIPC, sf.Threads[t].EstIPCST)
			sp0[t] = safeDiv(s0.Threads[t].WindowIPC, s0.Threads[t].EstIPCST)
			d.SpeedupsF[t] = append(d.SpeedupsF[t], spF[t])
			d.Speedups0[t] = append(d.Speedups0[t], sp0[t])
		}
		d.FairF = append(d.FairF, core.FairnessMetric(spF[:]))
		d.Fair0 = append(d.Fair0, core.FairnessMetric(sp0[:]))
	}

	fmt.Fprintln(w, "Figure 5: detailed examination of gcc:eon (F = 1/4)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "real IPC_ST: gcc=%.3f eon=%.3f\n\n", pr.ST[0], pr.ST[1])
	fmt.Fprint(w, asciiPlot("(top) estimated IPC_ST while running in SOE",
		d.Cycles, []plotSeries{
			{Label: "gcc est IPC_ST", Marker: 'g', Y: d.EstST[0]},
			{Label: "eon est IPC_ST", Marker: 'e', Y: d.EstST[1]},
		}, 12, 63))
	fmt.Fprintln(w)
	fmt.Fprint(w, asciiPlot("(middle) estimated speedups, F=1/4",
		d.Cycles, []plotSeries{
			{Label: "gcc speedup", Marker: 'g', Y: d.SpeedupsF[0]},
			{Label: "eon speedup", Marker: 'e', Y: d.SpeedupsF[1]},
		}, 12, 63))
	fmt.Fprintln(w)
	fmt.Fprint(w, asciiPlot("(bottom) achieved fairness per window",
		d.Cycles, []plotSeries{
			{Label: "F=1/4 enforced", Marker: 'f', Y: d.FairF},
			{Label: "F=0 (none)", Marker: '0', Y: d.Fair0},
		}, 12, 63))

	meanFair := stats.Mean(d.FairF)
	meanFair0 := stats.Mean(d.Fair0)
	gccShareGain := safeDiv(rf.Threads[0].IPC, r0.Threads[0].IPC)
	fmt.Fprintf(w, "\nmean window fairness: F=1/4 %.3f vs F=0 %.3f\n", meanFair, meanFair0)
	fmt.Fprintf(w, "gcc IPC with enforcement / without: %.1fx\n", gccShareGain)
	return d, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Fig6Summary aggregates Figure 6.
type Fig6Summary struct {
	AvgSpeedupByF map[float64]float64 // mean SOE-over-ST speedup per F level
}

// ExpFig6 reproduces Figure 6: per-pair throughput (stacked per-thread
// IPC_SOE) at every enforcement level plus single-thread references.
func ExpFig6(w io.Writer, runs []*PairRun) (*Fig6Summary, error) {
	fmt.Fprintln(w, "Figure 6: throughput (IPC) of thread combinations")
	fmt.Fprintln(w)
	t := stats.NewTable("pair", "IPC_ST(a)", "IPC_ST(b)",
		"SOE F=0 (a+b)", "F=1/4", "F=1/2", "F=1")
	stacked := func(r *sim.Result) string {
		return fmt.Sprintf("%.2f (%.2f+%.2f)", r.IPCTotal, r.Threads[0].IPC, r.Threads[1].IPC)
	}
	for _, pr := range runs {
		t.AddRow(pr.Pair.Name(),
			fmt.Sprintf("%.2f", pr.ST[0]), fmt.Sprintf("%.2f", pr.ST[1]),
			stacked(pr.ByF[0]), stacked(pr.ByF[0.25]), stacked(pr.ByF[0.5]), stacked(pr.ByF[1]))
	}
	if _, err := t.WriteTo(w); err != nil {
		return nil, err
	}

	sum := &Fig6Summary{AvgSpeedupByF: map[float64]float64{}}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "average speedup of SOE over single thread (paper: 24%, 21%, 19%, 15%):")
	for _, f := range FLevels {
		var sp []float64
		for _, pr := range runs {
			sp = append(sp, pr.SOESpeedup(f))
		}
		m := stats.Mean(sp)
		sum.AvgSpeedupByF[f] = m
		fmt.Fprintf(w, "  %-6s %+.1f%%\n", fLabel(f), (m-1)*100)
	}
	return sum, nil
}

// Fig7Summary aggregates Figure 7.
type Fig7Summary struct {
	AvgDegradationByF map[float64]float64 // mean 1 - normalized throughput
	Correlation       float64             // forced-switch rate vs degradation at F=1
}

// ExpFig7 reproduces Figure 7: throughput degradation due to fairness
// enforcement and the forced-switch rate.
func ExpFig7(w io.Writer, runs []*PairRun) (*Fig7Summary, error) {
	fmt.Fprintln(w, "Figure 7: throughput degradation and forced switches")
	fmt.Fprintln(w)
	t := stats.NewTable("pair",
		"norm F=1/4", "norm F=1/2", "norm F=1",
		"forced/1k F=1/4", "forced/1k F=1/2", "forced/1k F=1")
	for _, pr := range runs {
		t.AddRow(pr.Pair.Name(),
			fmt.Sprintf("%.3f", pr.NormalizedThroughput(0.25)),
			fmt.Sprintf("%.3f", pr.NormalizedThroughput(0.5)),
			fmt.Sprintf("%.3f", pr.NormalizedThroughput(1)),
			fmt.Sprintf("%.2f", pr.ByF[0.25].ForcedPer1k()),
			fmt.Sprintf("%.2f", pr.ByF[0.5].ForcedPer1k()),
			fmt.Sprintf("%.2f", pr.ByF[1].ForcedPer1k()))
	}
	if _, err := t.WriteTo(w); err != nil {
		return nil, err
	}

	sum := &Fig7Summary{AvgDegradationByF: map[float64]float64{}}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "average throughput degradation (paper: 2.2%, 3.7%, 7.2%):")
	for _, f := range FLevels[1:] {
		var deg []float64
		for _, pr := range runs {
			deg = append(deg, 1-pr.NormalizedThroughput(f))
		}
		m := stats.Mean(deg)
		sum.AvgDegradationByF[f] = m
		fmt.Fprintf(w, "  %-6s %.1f%%\n", fLabel(f), m*100)
	}

	// Correlation between forced-switch rate and degradation at F=1
	// (the paper notes "high correlation").
	var xs, ys []float64
	for _, pr := range runs {
		xs = append(xs, pr.ByF[1].ForcedPer1k())
		ys = append(ys, 1-pr.NormalizedThroughput(1))
	}
	sum.Correlation = pearson(xs, ys)
	fmt.Fprintf(w, "\ncorrelation(forced switches, degradation) at F=1: %.2f\n", sum.Correlation)
	return sum, nil
}

func pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Fig8Summary aggregates Figure 8.
type Fig8Summary struct {
	AchievedByF     map[float64][]float64 // per-run achieved fairness, sorted by F=0 fairness
	AvgTruncatedByF map[float64]float64   // mean of min(F, achieved)
	StdTruncatedByF map[float64]float64
	UnfairShareF0   float64 // fraction of F=0 runs with fairness < 0.1
	StarvedShareF0  float64 // fraction of F=0 runs with a thread 10-100x slower
}

// ExpFig8 reproduces Figure 8: achieved fairness with and without
// enforcement (left), and the truncated averages (right).
func ExpFig8(w io.Writer, runs []*PairRun) (*Fig8Summary, error) {
	ordered := append([]*PairRun(nil), runs...)
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].Fairness(0) < ordered[j].Fairness(0)
	})

	fmt.Fprintln(w, "Figure 8 (left): achieved fairness, runs ordered by F=0 fairness")
	fmt.Fprintln(w)
	t := stats.NewTable("pair", "F=0", "F=1/4", "F=1/2", "F=1")
	sum := &Fig8Summary{
		AchievedByF:     map[float64][]float64{},
		AvgTruncatedByF: map[float64]float64{},
		StdTruncatedByF: map[float64]float64{},
	}
	unfair, starved := 0, 0
	for _, pr := range ordered {
		row := []string{pr.Pair.Name()}
		for _, f := range FLevels {
			af := pr.Fairness(f)
			sum.AchievedByF[f] = append(sum.AchievedByF[f], af)
			row = append(row, fmt.Sprintf("%.3f", af))
		}
		if pr.Fairness(0) < 0.1 {
			unfair++
		}
		// The abstract's criterion: one thread 10-100x slower than its
		// single-thread performance (min speedup below 0.1).
		if stats.Min(pr.Speedups(0)) < 0.1 {
			starved++
		}
		t.AddRow(row...)
	}
	sum.UnfairShareF0 = float64(unfair) / float64(len(ordered))
	sum.StarvedShareF0 = float64(starved) / float64(len(ordered))
	if _, err := t.WriteTo(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nruns with F=0 fairness < 0.1: %d of %d\n", unfair, len(ordered))
	fmt.Fprintf(w, "runs with a thread 10-100x slower at F=0: %d of %d (paper: over a third)\n",
		starved, len(ordered))

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 8 (right): average of min(F, achieved) ± stddev")
	t2 := stats.NewTable("target", "mean", "stddev")
	for _, f := range FLevels {
		var tr []float64
		for _, pr := range ordered {
			tr = append(tr, core.TruncatedFairness(f, pr.Fairness(f)))
		}
		sum.AvgTruncatedByF[f] = stats.Mean(tr)
		sum.StdTruncatedByF[f] = stats.StdDev(tr)
		t2.AddRow(fLabel(f), fmt.Sprintf("%.3f", sum.AvgTruncatedByF[f]),
			fmt.Sprintf("%.3f", sum.StdTruncatedByF[f]))
	}
	_, err := t2.WriteTo(w)
	return sum, err
}

// TimeShareRow is one simulated time-sharing configuration.
type TimeShareRow struct {
	QuotaCycles   float64
	Fairness      float64
	IPC           float64
	SwitchesPer1k float64
}

// TimeShareSummary aggregates the §6 comparison.
type TimeShareSummary struct {
	ModelTimeShareFairness float64
	ModelMechanismFairness float64
	SimRows                []TimeShareRow // swept quotas
	SimMechanismFairness   float64
	SimMechanismIPC        float64
}

// ExpTimeShare reproduces the §6 discussion: simple time sharing is
// ineffective for producing high fairness with small performance
// degradation — a small quota buys fairness with frequent pipeline
// flushes, a large quota keeps throughput but rarely achieves fair
// execution. The mechanism delivers fairness at high throughput. Both
// the analytical Example 2 numbers and a simulated quota sweep on
// gcc:eon are shown. See ExpTimeShareContext.
func ExpTimeShare(w io.Writer, r *Runner) (*TimeShareSummary, error) {
	return ExpTimeShareContext(context.Background(), w, r)
}

// ExpTimeShareContext is ExpTimeShare honoring ctx cancellation.
func ExpTimeShareContext(ctx context.Context, w io.Writer, r *Runner) (*TimeShareSummary, error) {
	sum := &TimeShareSummary{}

	sys := model.Example2System()
	tsFair, tsSp, err := sys.TimeShareFairness(400)
	if err != nil {
		return nil, err
	}
	mech, err := sys.Predict(1)
	if err != nil {
		return nil, err
	}
	sum.ModelTimeShareFairness = tsFair
	sum.ModelMechanismFairness = mech.Fairness
	fmt.Fprintln(w, "§6: simple time sharing vs the fairness mechanism")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "analytical (Example 2, 400-cycle quota): speedups [%.2f %.2f], fairness %.2f\n",
		tsSp[0], tsSp[1], tsFair)
	fmt.Fprintf(w, "analytical (mechanism, F=1):            speedups [%.2f %.2f], fairness %.2f\n",
		mech.Speedup[0], mech.Speedup[1], mech.Fairness)

	// The gcc:eon pair (for its references and the mechanism rows) and
	// the quota sweep fan out together over the cache's pool, all
	// through the result cache.
	quotas := []float64{400, 2000, 10000, 50000}
	var pr *PairRun
	quotaRuns := make([]*sim.Result, len(quotas))
	r.markUsed()
	err = fanOut(ctx, 1+len(quotas), func(ctx context.Context, i int) (err error) {
		if i == 0 {
			pr, err = r.RunPairContext(ctx, Pair{"gcc", "eon"})
			return err
		}
		m := r.Opts.Machine
		m.Controller.Policy = core.TimeShare{QuotaCycles: quotas[i-1]}
		quotaRuns[i-1], err = r.cache.RunSpecContext(ctx, sim.Spec{
			Machine: m,
			Threads: []sim.ThreadSpec{
				{Profile: workload.MustByName("gcc"), Slot: 0},
				{Profile: workload.MustByName("eon"), Slot: 1},
			},
			Scale:    r.Opts.Scale,
			Watchdog: r.Opts.Watchdog,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	sum.SimMechanismFairness = pr.Fairness(1)
	sum.SimMechanismIPC = pr.ByF[1].IPCTotal

	fmt.Fprintln(w)
	fmt.Fprintln(w, "simulated gcc:eon:")
	t := stats.NewTable("policy", "fairness", "IPC", "switches/1k cycles")
	for i, q := range quotas {
		res := quotaRuns[i]
		sp := core.Speedups([]float64{res.Threads[0].IPC, res.Threads[1].IPC}, pr.ST[:])
		row := TimeShareRow{
			QuotaCycles:   q,
			Fairness:      core.FairnessMetric(sp),
			IPC:           res.IPCTotal,
			SwitchesPer1k: float64(res.Switches.Total()) / float64(res.WallCycles) * 1000,
		}
		sum.SimRows = append(sum.SimRows, row)
		t.AddRow(fmt.Sprintf("time share %.0f cyc", q),
			fmt.Sprintf("%.3f", row.Fairness),
			fmt.Sprintf("%.3f", row.IPC),
			fmt.Sprintf("%.2f", row.SwitchesPer1k))
	}
	mechRes := pr.ByF[1]
	t.AddRow("mechanism F=1",
		fmt.Sprintf("%.3f", sum.SimMechanismFairness),
		fmt.Sprintf("%.3f", sum.SimMechanismIPC),
		fmt.Sprintf("%.2f", float64(mechRes.Switches.Total())/float64(mechRes.WallCycles)*1000))
	t.AddRow("event-only F=0",
		fmt.Sprintf("%.3f", pr.Fairness(0)),
		fmt.Sprintf("%.3f", pr.ByF[0].IPCTotal),
		fmt.Sprintf("%.2f", float64(pr.ByF[0].Switches.Total())/float64(pr.ByF[0].WallCycles)*1000))
	if _, err := t.WriteTo(w); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "\nsmall quotas buy fairness with heavy switching (throughput cost);")
	fmt.Fprintln(w, "large quotas keep throughput but lose fairness; the mechanism needs")
	fmt.Fprintln(w, "far fewer switches for its fairness level.")
	return sum, nil
}
