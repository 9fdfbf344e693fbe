package sim

import (
	"strings"
	"testing"

	"soemt/internal/core"
	"soemt/internal/pipeline"
	"soemt/internal/workload"
)

// unitScale keeps unit tests fast; shape checks use larger runs in the
// experiments package and benches.
func unitScale() Scale {
	return Scale{CacheWarm: 50_000, Warm: 30_000, Measure: 120_000, MaxCycles: 20_000_000}
}

func pairSpec(a, b string, policy core.Policy) Spec {
	m := DefaultMachine()
	m.Controller.Policy = policy
	return Spec{
		Machine: m,
		Threads: []ThreadSpec{
			{Profile: workload.MustByName(a), Slot: 0},
			{Profile: workload.MustByName(b), Slot: 1, StartSeq: ifSame(a, b)},
		},
		Scale: unitScale(),
	}
}

// ifSame returns the paper's 1M-instruction offset for same-benchmark
// pairs, scaled down for tests.
func ifSame(a, b string) uint64 {
	if a == b {
		return 100_000
	}
	return 0
}

func TestRunSingleProducesSaneIPC(t *testing.T) {
	m := DefaultMachine()
	res, err := RunSingle(m, ThreadSpec{Profile: workload.MustByName("eon"), Slot: 0}, unitScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 1 {
		t.Fatal("single run thread count")
	}
	ipc := res.Threads[0].IPC
	if ipc < 0.5 || ipc > 4 {
		t.Errorf("eon single-thread IPC = %.3f, implausible", ipc)
	}
	if res.Switches.Total() != 0 {
		t.Error("single-thread run switched threads")
	}
}

func TestSOEPairBeatsWorseSingle(t *testing.T) {
	soe, err := Run(pairSpec("gcc", "eon", core.EventOnly{}))
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	gccAlone, err := RunSingle(m, ThreadSpec{Profile: workload.MustByName("gcc"), Slot: 0}, unitScale())
	if err != nil {
		t.Fatal(err)
	}
	if soe.IPCTotal <= gccAlone.Threads[0].IPC {
		t.Errorf("SOE total %.3f not above gcc alone %.3f", soe.IPCTotal, gccAlone.Threads[0].IPC)
	}
	if soe.Switches.Miss == 0 {
		t.Error("no miss switches in SOE pair")
	}
}

func TestFairnessPolicyChangesOutcome(t *testing.T) {
	f0, err := Run(pairSpec("gcc", "eon", core.EventOnly{}))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := Run(pairSpec("gcc", "eon", core.Fairness{F: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if f1.Switches.Quota == 0 {
		t.Fatal("no forced switches under F=1")
	}
	// gcc (the missy thread) must get a larger share under enforcement.
	share := func(r *Result) float64 {
		return r.Threads[0].IPC / (r.Threads[0].IPC + r.Threads[1].IPC)
	}
	if share(f1) <= share(f0) {
		t.Errorf("gcc share did not grow: F0=%.3f F1=%.3f", share(f0), share(f1))
	}
	if f1.ForcedPer1k() <= f0.ForcedPer1k() {
		t.Error("forced switch rate must grow with enforcement")
	}
}

func TestResultAccounting(t *testing.T) {
	res, err := Run(pairSpec("bzip2", "swim", core.Fairness{F: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, tr := range res.Threads {
		if tr.Counters.Instrs < unitScale().Measure {
			t.Errorf("%s retired %d < target", tr.Name, tr.Counters.Instrs)
		}
		if tr.Counters.Cycles == 0 || tr.Counters.Misses == 0 {
			t.Errorf("%s has empty counters %+v", tr.Name, tr.Counters)
		}
		if tr.IPM <= 0 || tr.CPM <= 0 || tr.EstIPCST <= 0 {
			t.Errorf("%s derived rates invalid", tr.Name)
		}
		sum += tr.IPC
	}
	if diff := sum - res.IPCTotal; diff > 1e-9 || diff < -1e-9 {
		t.Error("IPCTotal != sum of thread IPCs")
	}
	if len(res.Samples) == 0 {
		t.Error("no Δ samples recorded")
	}
}

func TestRunValidation(t *testing.T) {
	m := DefaultMachine()
	if _, err := Run(Spec{Machine: m, Scale: unitScale()}); err == nil {
		t.Error("no threads must fail")
	}
	sp := pairSpec("gcc", "eon", core.EventOnly{})
	sp.Scale.Measure = 0
	if _, err := Run(sp); err == nil {
		t.Error("zero measure must fail")
	}
	sp = pairSpec("gcc", "eon", core.EventOnly{})
	sp.Threads[0].Profile.DepWindow = 0
	if _, err := Run(sp); err == nil {
		t.Error("invalid profile must fail")
	}
	sp = pairSpec("gcc", "eon", core.EventOnly{})
	sp.Machine.Pipeline.ROBSize = 0
	if _, err := Run(sp); err == nil {
		t.Error("invalid pipeline config must fail")
	}
}

func TestSameBenchmarkPairOffset(t *testing.T) {
	// Same-benchmark pairs must actually run offset streams in
	// disjoint address slots — both threads progress.
	res, err := Run(pairSpec("gzip", "gzip", core.EventOnly{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads[0].Counters.Instrs == 0 || res.Threads[1].Counters.Instrs == 0 {
		t.Fatal("same-benchmark pair starved a thread completely")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(pairSpec("gcc", "eon", core.Fairness{F: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pairSpec("gcc", "eon", core.Fairness{F: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	if a.WallCycles != b.WallCycles || a.Switches != b.Switches {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d cycles/switches",
			a.WallCycles, a.Switches.Total(), b.WallCycles, b.Switches.Total())
	}
}

func TestTable3Rendering(t *testing.T) {
	tbl := Table3(DefaultMachine())
	out := tbl.String()
	for _, want := range []string{"300 cycles", "2048 KiB", "250000 cycles", "ROB"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestPaperAndQuickScales(t *testing.T) {
	p := PaperScale()
	if p.CacheWarm != 10_000_000 || p.Warm != 1_000_000 || p.Measure != 6_000_000 {
		t.Error("paper scale must match §4.1")
	}
	q := QuickScale()
	if q.Measure == 0 || q.Measure >= p.Measure {
		t.Error("quick scale must be a reduction")
	}
}

func TestScaleByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scale
	}{
		{"tiny", Scale{CacheWarm: 50_000, Warm: 50_000, Measure: 250_000, MaxCycles: 50_000_000}},
		{"quick", QuickScale()},
		{"paper", PaperScale()},
	} {
		got, err := ScaleByName(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ScaleByName(%q) = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "Tiny", "huge"} {
		if _, err := ScaleByName(bad); err == nil || !strings.Contains(err.Error(), "unknown scale") {
			t.Errorf("ScaleByName(%q) error = %v, want unknown scale", bad, err)
		}
	}
}

func TestInjectedEventsRespected(t *testing.T) {
	base, err := Run(pairSpec("gcc", "eon", core.EventOnly{}))
	if err != nil {
		t.Fatal(err)
	}
	sp := pairSpec("gcc", "eon", core.EventOnly{})
	sp.Threads[0].Events = []pipeline.InjectedStall{
		{AtInstr: 60_000, StallCycles: 50_000},
	}
	withEv, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if withEv.WallCycles <= base.WallCycles {
		t.Errorf("injected 50k-cycle stall did not slow the run: %d vs %d",
			withEv.WallCycles, base.WallCycles)
	}
}

// Regression: hitting Scale.MaxCycles before the measurement target
// must be flagged instead of silently returning truncated counters.
func TestRunSetsTruncated(t *testing.T) {
	spec := pairSpec("gcc", "eon", core.EventOnly{})
	spec.Scale = Scale{CacheWarm: 10_000, Warm: 0, Measure: 1 << 40, MaxCycles: 50_000}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("capped run must set Truncated")
	}
	if res.WallCycles != 50_000 {
		t.Fatalf("capped run measured %d cycles, want 50000", res.WallCycles)
	}

	full, err := Run(pairSpec("gcc", "eon", core.EventOnly{}))
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatal("completed run must not set Truncated")
	}
}

func TestFingerprintJSONStableAndGuarded(t *testing.T) {
	spec := pairSpec("gcc", "eon", core.Fairness{F: 0.5})
	a, err := spec.FingerprintJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.FingerprintJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("fingerprint payload not deterministic")
	}
	if !strings.Contains(string(a), `"PolicyName":"fairness"`) {
		t.Errorf("payload missing policy name: %s", a)
	}

	spec.Machine.Controller.Policy = nil
	if _, err := spec.FingerprintJSON(); err == nil {
		t.Fatal("nil policy must be rejected")
	}
}
