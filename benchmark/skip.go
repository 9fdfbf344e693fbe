package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"soemt/internal/core"
	"soemt/internal/pipeline"
	"soemt/internal/rng"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// skip-heavy: serial sim.RunContext calls on the default engine over
// specs whose threads are mostly stalled, so the idle-skip engine
// jumps most simulated cycles. A pass runs every spec once; the run
// repeats passes for --seconds and reports the median pass.

// Stall schedule: one injected stall about every skipStallSpacing
// instructions on each thread, each 30k–50k cycles long. Both come from
// the seed, but the sums over hundreds of stalls barely move with it,
// so every seed asks for nearly the same work.
const (
	skipStallSpacing = 1000
	skipStallUntil   = 400_000 // beyond warm-up plus measure at tiny scale
)

// skipSpecs builds one pass's specs from seed: swim:mcf and swim:gcc
// at F=1 under dense stall schedules, plus event-only swim:mcf, whose
// threads stall only on their own misses.
func skipSpecs(seed uint64) []sim.Spec {
	scale := tinyOptions().Scale
	mk := func(policy core.Policy, names ...string) sim.Spec {
		m := sim.DefaultMachine()
		m.Controller.Policy = policy
		s := sim.Spec{Machine: m, Scale: scale}
		for i, n := range names {
			s.Threads = append(s.Threads, sim.ThreadSpec{Profile: workload.MustByName(n), Slot: i})
		}
		return s
	}
	stalls := func(label string) []pipeline.InjectedStall {
		root := rng.Sub(seed, "skip-heavy|"+label)
		var out []pipeline.InjectedStall
		for i := uint64(1); i*skipStallSpacing < skipStallUntil; i++ {
			out = append(out, pipeline.InjectedStall{
				AtInstr:     i*skipStallSpacing + uint64(rng.IntnAt(root, 2*i, skipStallSpacing/2)),
				StallCycles: 30_000 + uint64(rng.IntnAt(root, 2*i+1, 20_001)),
			})
		}
		return out
	}
	specs := []sim.Spec{
		mk(core.Fairness{F: 1}, "swim", "mcf"),
		mk(core.Fairness{F: 1}, "swim", "gcc"),
		mk(core.EventOnly{}, "swim", "mcf"),
	}
	for i := 0; i < 2; i++ {
		for t := range specs[i].Threads {
			specs[i].Threads[t].Events = stalls(fmt.Sprintf("%d/%d", i, t))
		}
	}
	return specs
}

// skipPass runs specs serially through run (sim.RunContext when nil)
// and returns the digest of their results and each run's duration.
func skipPass(specs []sim.Spec, run func(context.Context, sim.Spec) (*sim.Result, error)) (string, []time.Duration, error) {
	if run == nil {
		run = sim.RunContext
	}
	results := make([]*sim.Result, len(specs))
	durs := make([]time.Duration, len(specs))
	for i, s := range specs {
		start := time.Now()
		res, err := run(context.Background(), s)
		durs[i] = time.Since(start)
		if err != nil {
			return "", nil, err
		}
		results[i] = res
	}
	d, err := digestJSON(results)
	return d, durs, err
}

const skipSetupReps = 1001

// skipTimes is what skipPhase measured.
type skipTimes struct {
	passes  []float64 // wall seconds per pass
	cpu     []float64 // process CPU seconds per pass
	sims    []float64 // ms per simulation
	digests []string
}

// skipPhase repeats passes until budget has elapsed (at least minPasses).
func skipPhase(specs []sim.Spec, run func(context.Context, sim.Spec) (*sim.Result, error), budget time.Duration) (*skipTimes, error) {
	const minPasses = 3
	st := &skipTimes{}
	start := time.Now()
	for len(st.passes) < minPasses || time.Since(start) < budget {
		t0, c0 := time.Now(), cpuTime()
		d, durs, err := skipPass(specs, run)
		if err != nil {
			return nil, err
		}
		st.passes = append(st.passes, time.Since(t0).Seconds())
		st.cpu = append(st.cpu, (cpuTime() - c0).Seconds())
		st.sims = append(st.sims, msOf(durs)...)
		st.digests = append(st.digests, d)
	}
	return st, nil
}

func runSkipHeavy(cfg config) (*outcome, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	settle()
	setups := make([]float64, skipSetupReps)
	var specs []sim.Spec
	for i := range setups {
		start := time.Now()
		specs = skipSpecs(cfg.seed)
		setups[i] = time.Since(start).Seconds()
	}

	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		budget /= 2 // half untraced, half traced: the overhead compares them
	}
	var probe *simProbe
	run := func(ctx context.Context, s sim.Spec) (*sim.Result, error) { return probe.run(ctx, s) }
	probe = newSimProbe(nil, cfg.busy)
	st, err := skipPhase(specs, run, budget)
	if err != nil {
		return nil, err
	}
	digests := st.digests
	oc := &outcome{info: map[string]any{"pass_s": st.passes}}
	wall := median(st.passes)
	d := summarize(st.sims)
	oc.e2e = map[string]float64{
		"setup_s":           median(setups),
		"wall_s":            wall,
		"peak_rss_mb":       peakRSSMB(),
		"answers_per_cpu_s": float64(len(specs)) / median(st.cpu),
	}
	oc.info["answers"] = d

	if cfg.trace {
		rec := newRecorder()
		traced := newSimProbe(rec, cfg.busy)
		probe = traced
		tst, err := skipPhase(specs, run, budget)
		if err != nil {
			return nil, err
		}
		digests = append(digests, tst.digests...)
		oc.layers = map[string]float64{
			"experiments.pool_util": float64(traced.engine().HostNs) / 1e9 / sum(tst.passes),
			"trace.overhead_frac":   (median(tst.passes) - wall) / wall,
		}
		addEngineLayers(oc.layers, traced.engine())
		if err := driveLayers(cfg, oc, traced, "", standInNodes); err != nil {
			return nil, err
		}
		oc.info["spans"] = dumpSpans(cfg, rec)
		oc.info["trace_lost_phase"] = traced.engine().LostPhase
	}

	// Output check: every pass must reproduce the expected results. A
	// seed outside the committed table is checked against the
	// cycle-by-cycle reference engine, after the timed phase.
	want, ok := exp.SkipHeavy[strconv.FormatUint(cfg.seed, 10)]
	if !ok {
		ref := make([]sim.Spec, len(specs))
		for i, s := range specs {
			s.Engine = "cycle-by-cycle"
			ref[i] = s
		}
		if want, _, err = skipPass(ref, nil); err != nil {
			return nil, err
		}
		oc.info["check"] = "reference engine"
	}
	oc.attempted = len(specs) * len(digests)
	for _, got := range digests {
		if got != want {
			oc.failed += len(specs)
			oc.wrong += len(specs)
			oc.info["digest_mismatch"] = got
		}
	}
	return oc, nil
}
