package sim

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"soemt/internal/core"
	"soemt/internal/obs"
	"soemt/internal/pipeline"
	"soemt/internal/workload"
)

// The engine-ratio gate. Both engines run the same spec in the same
// binary, so the fast-forward speedup over the cycle-by-cycle
// reference cancels host speed and a committed baseline stays
// meaningful on any runner. It is a benchmark, not a test: `go test
// ./...` runs no timing gate; CI runs
//
//	go test -run '^$' -bench EngineSpeedup -benchtime 1x ./internal/sim

// engineBaseline holds the committed speedups the gate's floors come
// from; engineTolerance is the allowed fractional regression.
const (
	engineBaseline  = "../../BENCH_4.json"
	engineTolerance = 0.20
	engineRounds    = 3
)

type engineScenario struct {
	name string
	spec Spec
}

// engineSuite returns the standing ratio scenarios at tiny scale. The
// mix is deliberate: miss-heavy workloads are where the idle
// fast-forward should pay off (long L2/memory stalls dominated by idle
// cycles), while the compute-bound pair bounds the overhead the
// horizon scan adds when there is nothing to skip.
func engineSuite() []engineScenario {
	mk := func(policy core.Policy, names ...string) Spec {
		m := DefaultMachine()
		m.Controller.Policy = policy
		s := Spec{Machine: m, Scale: TinyScale()}
		for i, n := range names {
			s.Threads = append(s.Threads, ThreadSpec{
				Profile: workload.MustByName(n), Slot: i,
			})
		}
		return s
	}
	withEvents := mk(core.Fairness{F: 1}, "swim", "gcc")
	withEvents.Threads[0].Events = []pipeline.InjectedStall{
		{AtInstr: 50_000, StallCycles: 25_000},
		{AtInstr: 200_000, StallCycles: 60_000},
	}
	// The flagship fast-forward scenario: a miss-heavy pair under a
	// dense external-event schedule (long device-wait-style stalls on
	// both threads, far longer than MaxCyclesQuota). With both threads
	// stalled the machine is provably idle for hundreds of thousands of
	// cycles at a stretch, which is exactly what the idle fast-forward
	// skips. The measure phase runs into the MaxCycles watchdog —
	// identically under both engines — so the two runs simulate the
	// same capped cycle count.
	heavyEvents := mk(core.Fairness{F: 1}, "swim", "mcf")
	var stalls []pipeline.InjectedStall
	for i := uint64(1); i <= 1600; i++ {
		stalls = append(stalls, pipeline.InjectedStall{AtInstr: 500 * i, StallCycles: 150_000})
	}
	heavyEvents.Threads[0].Events = stalls
	heavyEvents.Threads[1].Events = stalls
	return []engineScenario{
		{"single-missy-swim", mk(core.EventOnly{}, "swim")},
		{"single-missy-mcf", mk(core.EventOnly{}, "mcf")},
		{"pair-missy-swim-mcf", mk(core.EventOnly{}, "swim", "mcf")},
		{"pair-missy-fair-swim-mcf", mk(core.Fairness{F: 1}, "swim", "mcf")},
		{"pair-compute-gcc-eon", mk(core.Fairness{F: 1}, "gcc", "eon")},
		{"pair-events-swim-gcc", withEvents},
		{"pair-heavy-events-swim-mcf", heavyEvents},
	}
}

// baselineSpeedups reads the committed per-scenario speedups.
func baselineSpeedups(tb testing.TB) map[string]float64 {
	tb.Helper()
	raw, err := os.ReadFile(engineBaseline)
	if err != nil {
		tb.Fatal(err)
	}
	var rep struct {
		Speedups map[string]float64 `json:"speedups"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		tb.Fatalf("%s: %v", engineBaseline, err)
	}
	if len(rep.Speedups) == 0 {
		tb.Fatalf("%s holds no speedups", engineBaseline)
	}
	return rep.Speedups
}

// timeRun times one simulation after a GC, so garbage left by the
// previous run is not charged to this one.
func timeRun(tb testing.TB, spec Spec) time.Duration {
	tb.Helper()
	runtime.GC()
	start := time.Now()
	res, err := Run(spec)
	elapsed := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	if res.WallCycles == 0 {
		tb.Fatal("run simulated no cycles")
	}
	return elapsed
}

// engineRatio runs spec under the reference and fast-forward engines
// alternately, swapping which goes first each round, and returns the
// median per-round ratio of reference over fast-forward wall time.
// Pairing the engines within a round cancels host drift between them.
func engineRatio(b *testing.B, spec Spec) float64 {
	ref, ff := spec, spec
	ref.Engine = "cycle-by-cycle"
	ff.Engine = "fast-forward"
	ratios := make([]float64, engineRounds)
	for r := range ratios {
		var refT, ffT time.Duration
		if r%2 == 0 {
			refT = timeRun(b, ref)
			ffT = timeRun(b, ff)
		} else {
			ffT = timeRun(b, ff)
			refT = timeRun(b, ref)
		}
		ratios[r] = refT.Seconds() / ffT.Seconds()
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}

// BenchmarkEngineSpeedup reports each scenario's fast-forward speedup
// and fails when one falls more than engineTolerance below its
// committed baseline.
func BenchmarkEngineSpeedup(b *testing.B) {
	base := baselineSpeedups(b)
	for _, sc := range engineSuite() {
		b.Run(sc.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = engineRatio(b, sc.spec)
			}
			b.ReportMetric(ratio, "speedup")
			if floor := base[sc.name] * (1 - engineTolerance); ratio < floor {
				b.Errorf("speedup %.2fx below floor %.2fx (baseline %.2fx in %s)",
					ratio, floor, base[sc.name], engineBaseline)
			}
		})
	}
}

// TestEngineSuiteCoversBaseline keeps the gate whole: a baseline
// scenario dropped from the suite, or a scenario without a baseline,
// would leave a ratio unchecked.
func TestEngineSuiteCoversBaseline(t *testing.T) {
	base := baselineSpeedups(t)
	inSuite := map[string]bool{}
	for _, sc := range engineSuite() {
		inSuite[sc.name] = true
		if base[sc.name] <= 0 {
			t.Errorf("scenario %s has no positive speedup in %s", sc.name, engineBaseline)
		}
	}
	for name := range base {
		if !inSuite[name] {
			t.Errorf("%s scenario %s is missing from engineSuite", engineBaseline, name)
		}
	}
}

// TestObsOverheadWithinBudget bounds the cost of observability: the
// switch-heavy gcc:eon pair under F=1 enforcement (it switches, samples
// and recomputes quotas constantly, so every event site fires), timed
// best-of-3 with a live tracer and registry attached and without. The
// enabled ratio must stay under 1.25; the DESIGN.md §10 budget of ≤2%
// for the disabled configuration (one nil check per event site) is
// bounded by it from above.
func TestObsOverheadWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	spec := pairSpec("gcc", "eon", core.Fairness{F: 1})
	spec.Scale = Scale{CacheWarm: 40_000, Warm: 20_000, Measure: 120_000, MaxCycles: 10_000_000}
	var bestOff, bestOn time.Duration
	for round := 0; round < 3; round++ {
		off := timeRun(t, spec)
		observed := spec
		observed.Obs = &obs.Observer{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry()}
		on := timeRun(t, observed)
		if observed.Obs.Trace.Len() == 0 {
			t.Fatal("obs-on run traced no events; measurement is vacuous")
		}
		if round == 0 || off < bestOff {
			bestOff = off
		}
		if round == 0 || on < bestOn {
			bestOn = on
		}
	}
	ratio := bestOn.Seconds() / bestOff.Seconds()
	t.Logf("obs on/off wall-time ratio = %.3f (best of 3: %v vs %v)", ratio, bestOn, bestOff)
	if ratio > 1.25 {
		t.Errorf("enabled observability costs %.1f%% wall time; budget is 25%% at test scale", (ratio-1)*100)
	}
	if ratio < 0.5 {
		t.Errorf("ratio %.3f implausibly low; measurement is broken", ratio)
	}
}
