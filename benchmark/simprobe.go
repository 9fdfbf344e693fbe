package main

import (
	"context"
	"sync"
	"time"

	"soemt/internal/obs"
	"soemt/internal/sim"
)

// simProbe wraps sim.RunContext as an experiments.Cache run function.
// It always times each simulation (the answer latencies of the
// simulation workloads). With a recorder it also opens a "sim" span
// under the caller's span and attaches its own observer to harvest the
// run's core.* and pipe.* counters; observers are read-only with
// respect to results, so traced and untraced runs stay bit-identical.
type simProbe struct {
	rec *recorder
	// busy adds this fraction of each simulation's own duration as
	// extra spinning: the benchmark's positive control, a uniform
	// slowdown of every simulation.
	busy float64

	tracers sync.Pool

	mu    sync.Mutex
	durs  []time.Duration
	stats engineStats
	// Traced runs keep their specs and results as inputs for the layer
	// drives.
	specs   []sim.Spec
	results []*sim.Result
}

// engineStats sums per-run engine counters over traced simulations.
type engineStats struct {
	Runs         int
	HostNs       int64
	Instrs       uint64 // measured-window instructions, all threads
	Cycles       uint64 // simulated cycles, warm-up and measured window
	SkipCycles   uint64 // cycles jumped by the idle-skip engine
	Switches     uint64 // measured-window thread switches
	PipeCycles   uint64 // measured-window pipeline cycles
	RenameStalls uint64
	ROBOccupancy uint64
	LostPhase    int // runs whose measure-phase marker left the trace ring
}

// tracerCap bounds the per-run event ring. Only the measure-phase
// marker is read back; the ring must hold every event recorded after
// it, which at tiny scale is far below this.
const tracerCap = 1 << 18

func newSimProbe(rec *recorder, busy float64) *simProbe {
	p := &simProbe{rec: rec, busy: busy}
	p.tracers.New = func() any { return obs.NewTracer(tracerCap) }
	return p
}

func (p *simProbe) run(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
	sp := p.rec.begin("sim", spanFrom(ctx))
	var reg *obs.Registry
	var tr *obs.Tracer
	if p.rec != nil {
		reg = obs.NewRegistry()
		tr = p.tracers.Get().(*obs.Tracer)
		tr.Reset()
		spec.Obs = &obs.Observer{Trace: tr, Metrics: reg}
	}
	start := time.Now()
	res, err := sim.RunContext(ctx, spec)
	d := time.Since(start)
	if p.busy > 0 {
		spin(time.Duration(float64(d) * p.busy))
	}
	p.rec.finish(sp)
	if err != nil {
		if tr != nil {
			p.tracers.Put(tr)
		}
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.durs = append(p.durs, d)
	if tr != nil {
		p.harvest(res, reg, tr, d)
		p.tracers.Put(tr)
		spec.Obs = nil
		p.specs = append(p.specs, spec)
		p.results = append(p.results, res)
	}
	return res, nil
}

// harvest adds one traced run to the engine totals. Caller holds p.mu.
func (p *simProbe) harvest(res *sim.Result, reg *obs.Registry, tr *obs.Tracer, d time.Duration) {
	st := &p.stats
	st.Runs++
	st.HostNs += int64(d)
	// core.skip.cycles counts warm-up too, so its denominator is every
	// simulated cycle: the measure phase starts where warm-up ended.
	measureStart, ok := uint64(0), false
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindPhase && ev.Cause == obs.CauseMeasure {
			measureStart, ok = ev.Cycle, true
			break
		}
	}
	if !ok {
		st.LostPhase++
		return
	}
	st.Cycles += measureStart + res.WallCycles
	st.SkipCycles += reg.Counter("core.skip.cycles").Load()
	for _, th := range res.Threads {
		st.Instrs += th.Counters.Instrs
	}
	st.Switches += res.Switches.Total()
	st.PipeCycles += reg.Counter("pipe.cycles").Load()
	st.RenameStalls += reg.Counter("pipe.rename_stalls").Load()
	st.ROBOccupancy += reg.Counter("pipe.rob_occupancy").Load()
}

// durations returns the simulation times recorded so far.
func (p *simProbe) durations() []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Duration(nil), p.durs...)
}

func (p *simProbe) engine() engineStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// spin burns CPU for d.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// addEngineLayers fills the sim/core/pipe metrics from traced runs.
func addEngineLayers(l map[string]float64, es engineStats) {
	l["sim.runs"] = float64(es.Runs)
	l["sim.host_s"] = float64(es.HostNs) / 1e9
	l["sim.ns_per_instr"] = ratio(float64(es.HostNs), float64(es.Instrs))
	l["sim.ns_per_cycle"] = ratio(float64(es.HostNs), float64(es.Cycles))
	l["core.skip_frac"] = ratio(float64(es.SkipCycles), float64(es.Cycles))
	l["core.switches_per_kinstr"] = ratio(1000*float64(es.Switches), float64(es.Instrs))
	l["pipe.rename_stall_frac"] = ratio(float64(es.RenameStalls), float64(es.PipeCycles))
	l["pipe.rob_occupancy_avg"] = ratio(float64(es.ROBOccupancy), float64(es.PipeCycles))
}
