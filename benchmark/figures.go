package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"soemt/internal/experiments"
	"soemt/internal/sim"
)

// figures-cold: the calls `soefig -exp all -scale tiny` makes, on a
// fresh Runner over a new, empty disk cache with one worker per CPU.
// It is the paper's fixed matrix and takes no seed.

// tinyOptions mirrors soefig's -scale tiny.
func tinyOptions() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Scale = sim.Scale{CacheWarm: 50_000, Warm: 50_000, Measure: 250_000, MaxCycles: 50_000_000}
	opts.SameOffset = 50_000
	return opts
}

// newFiguresRunner is soefig's set-up: a runner over the cache
// directory and its worker count.
func newFiguresRunner(dir string, probe *simProbe) (*experiments.Runner, error) {
	r := experiments.NewRunner(tinyOptions())
	r.Workers = runtime.NumCPU()
	if err := r.SetCacheDir(dir); err != nil {
		return nil, err
	}
	r.Cache().SetRunFunc(probe.run)
	return r, nil
}

type figuresResult struct {
	digest  string
	setup   time.Duration
	wall    time.Duration
	cpu     time.Duration // process CPU time of the experiment calls
	probe   *simProbe
	runner  *experiments.Runner
	expSpan map[string]uint64
}

// figuresSetupReps is how many times a run repeats the microsecond
// set-up to report a steady median.
const figuresSetupReps = 1001

// The benchmark creates each empty cache directory before timing the
// set-up, as a user's mkdir would: creating a directory took 30–170 µs
// depending on the host's file-system state, against about 5 µs for
// the program's own set-up, and that noise would have swamped it.

// figuresPass builds a fresh runner and makes every experiment call.
// With a recorder, each call is a span and simulations are its
// children.
func figuresPass(cfg config, rec *recorder) (*figuresResult, error) {
	probe := newSimProbe(rec, cfg.busy)
	base, err := scratchDir(cfg, "figures")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var r *experiments.Runner
	settle()
	setups := make([]float64, figuresSetupReps)
	for i := range setups {
		dir := filepath.Join(base, fmt.Sprintf("cache-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		r, err = newFiguresRunner(dir, probe)
		setups[i] = float64(time.Since(start))
		if err != nil {
			return nil, err
		}
	}

	var buf bytes.Buffer
	ctx := context.Background()
	opts := r.Opts
	res := &figuresResult{setup: time.Duration(median(setups)), probe: probe, runner: r, expSpan: map[string]uint64{}}
	matrix := func(render func(io.Writer, []*experiments.PairRun) error) func(context.Context) error {
		return func(ctx context.Context) error {
			runs, err := r.RunAllContext(ctx)
			if err != nil {
				return err
			}
			return render(&buf, runs)
		}
	}
	calls := []struct {
		name, span string
		fn         func(context.Context) error
	}{
		{"table3", "exp.table3", func(context.Context) error { return experiments.ExpTable3(&buf, opts) }},
		{"table2", "exp.table2", func(context.Context) error { return experiments.ExpTable2(&buf) }},
		{"fig3", "exp.fig3", func(context.Context) error { return experiments.ExpFig3(&buf) }},
		{"example1", "exp.example1", func(ctx context.Context) error { return experiments.ExpExample1Context(ctx, &buf, r) }},
		{"fig5", "exp.fig5", func(ctx context.Context) error { _, err := experiments.ExpFig5Context(ctx, &buf, r); return err }},
		{"fig6", "exp.matrix", matrix(func(w io.Writer, runs []*experiments.PairRun) error {
			_, err := experiments.ExpFig6(w, runs)
			return err
		})},
		{"fig7", "exp.matrix", matrix(func(w io.Writer, runs []*experiments.PairRun) error {
			_, err := experiments.ExpFig7(w, runs)
			return err
		})},
		{"fig8", "exp.matrix", matrix(func(w io.Writer, runs []*experiments.PairRun) error {
			_, err := experiments.ExpFig8(w, runs)
			return err
		})},
		{"timeshare", "exp.timeshare", func(ctx context.Context) error { _, err := experiments.ExpTimeShareContext(ctx, &buf, r); return err }},
	}

	start, cpu0 := time.Now(), cpuTime()
	var open span
	for i, c := range calls {
		if i > 0 {
			fmt.Fprintln(&buf, "\n"+strings.Repeat("=", 78)+"\n")
		}
		// Fig 6, 7 and 8 share one matrix: one span covers all three.
		if open.Name != c.span {
			rec.finish(open)
			open = rec.begin(c.span, 0)
			res.expSpan[c.span] = open.ID
		}
		if err := c.fn(withSpan(ctx, open.ID)); err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	rec.finish(open)
	res.wall, res.cpu = time.Since(start), cpuTime()-cpu0
	res.digest = digestBytes(buf.Bytes())
	return res, nil
}

// heapObjects returns the process's cumulative heap allocations.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func runFiguresCold(cfg config) (*outcome, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	check := func(fr *figuresResult, oc *outcome) {
		n := len(fr.probe.durations())
		oc.attempted += n
		if fr.digest != exp.FiguresCold {
			oc.failed++
			oc.wrong++
			oc.info["digest_mismatch"] = fr.digest
		}
	}
	oc := &outcome{info: map[string]any{"fixed_work": "seed and --seconds do not apply: the paper's matrix is fixed"}}

	base, err := figuresPass(cfg, nil)
	if err != nil {
		return nil, err
	}
	check(base, oc)
	sims := msOf(base.probe.durations())
	d := summarize(sims)
	oc.e2e = map[string]float64{
		"setup_s":           base.setup.Seconds(),
		"wall_s":            base.wall.Seconds(),
		"peak_rss_mb":       peakRSSMB(),
		"answers_per_cpu_s": float64(len(sims)) / base.cpu.Seconds(),
	}
	oc.info["answers"] = d
	oc.info["workers"] = base.runner.Workers
	if !cfg.trace {
		return oc, nil
	}

	rec := newRecorder()
	tr, err := figuresPass(cfg, rec)
	if err != nil {
		return nil, err
	}
	check(tr, oc)
	spans := rec.snapshot()
	self := selfTimes(spans)
	es := tr.probe.engine()
	m := tr.runner.Metrics()
	oc.layers = map[string]float64{
		"experiments.matrix_s":    self[tr.expSpan["exp.matrix"]].Seconds(),
		"experiments.fig5_s":      self[tr.expSpan["exp.fig5"]].Seconds(),
		"experiments.example1_s":  self[tr.expSpan["exp.example1"]].Seconds(),
		"experiments.timeshare_s": self[tr.expSpan["exp.timeshare"]].Seconds(),
		"experiments.pool_util":   float64(es.HostNs) / (float64(tr.runner.Workers) * float64(tr.wall)),
		"cache.misses":            float64(m.Misses),
		"cache.mem_hits":          float64(m.MemHits),
		"cache.disk_hits":         float64(m.DiskHits),
		"trace.overhead_frac":     (tr.wall.Seconds() - base.wall.Seconds()) / base.wall.Seconds(),
	}
	addEngineLayers(oc.layers, es)
	if err := driveLayers(cfg, oc, tr.probe, "write", standInNodes); err != nil {
		return nil, err
	}
	oc.info["spans"] = dumpSpans(cfg, rec)
	oc.info["trace_lost_phase"] = es.LostPhase
	return oc, nil
}
