package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"soemt/internal/core"
	"soemt/internal/pipeline"
	"soemt/internal/workload"
)

// singleSpec builds a one-thread spec with no warmup, for tests that
// need the measured phase to start immediately.
func singleSpec(name string, scale Scale) Spec {
	m := DefaultMachine()
	m.Controller.Policy = core.EventOnly{}
	return Spec{
		Machine: m,
		Threads: []ThreadSpec{{Profile: workload.MustByName(name), Slot: 0}},
		Scale:   scale,
	}
}

// A never-resolving injected stall with MaxCycles=0 would previously
// spin forever; the stall watchdog must turn it into a diagnostic
// error.
func TestStallWatchdogCatchesNeverResolvingStall(t *testing.T) {
	spec := singleSpec("gcc", Scale{Measure: 1_000_000})
	spec.Threads[0].Events = []pipeline.InjectedStall{
		{AtInstr: 100, StallCycles: 1 << 40}, // effectively forever
	}
	spec.Watchdog = Watchdog{StallCycles: 300_000}

	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = Run(spec)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stalled spec did not return within 30s: watchdog ineffective")
	}
	if res != nil {
		t.Fatal("stalled run must not produce a result")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("want ErrStalled, got %v", err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %T", err)
	}
	if se.Fingerprint == "" || se.Window != 300_000 {
		t.Errorf("stall error missing diagnostics: %+v", se)
	}
}

func TestWallClockWatchdog(t *testing.T) {
	// A paper-sized measurement with no cycle cap would take minutes;
	// the wall-clock watchdog must abort it near the configured budget.
	spec := singleSpec("swim", Scale{Measure: 2_000_000_000})
	spec.Watchdog = Watchdog{Timeout: 100 * time.Millisecond}

	start := time.Now()
	res, err := Run(spec)
	elapsed := time.Since(start)
	if res != nil || !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got (%v, %v)", res, err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("deadline enforced after %v; want promptly after 100ms", elapsed)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, singleSpec("gcc", unitScale()))
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got (%v, %v)", res, err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := singleSpec("swim", Scale{Measure: 2_000_000_000})
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, spec)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation not honored within 30s")
	}
}

// Invalid machine configurations must surface as errors from sim.Run —
// the acceptance criterion for replacing the constructor panics.
func TestInvalidConfigsReturnErrors(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Spec)
	}{
		{"MemLatency=0", func(s *Spec) { s.Machine.Memory.MemLatency = 0 }},
		{"MSHRs=0", func(s *Spec) { s.Machine.Memory.MSHRs = 0 }},
		{"bad L1D line", func(s *Spec) { s.Machine.Memory.L1D.LineSize = 60 }},
		{"bad L2 sets", func(s *Spec) { s.Machine.Memory.L2.SizeKB = 3; s.Machine.Memory.L2.Ways = 16 }},
		{"bad DTLB entries", func(s *Spec) { s.Machine.Memory.DTLB.Entries = 7 }},
		{"bad ITLB page", func(s *Spec) { s.Machine.Memory.ITLB.PageSize = 1000 }},
		{"nil policy", func(s *Spec) { s.Machine.Controller.Policy = nil }},
		{"zero drain", func(s *Spec) { s.Machine.Controller.DrainCycles = 0 }},
		{"negative MissLat", func(s *Spec) { s.Machine.Controller.MissLat = -1 }},
		{"bad SmoothAlpha", func(s *Spec) { s.Machine.Controller.SmoothAlpha = 2 }},
		{"zero ROB", func(s *Spec) { s.Machine.Pipeline.ROBSize = 0 }},
		{"zero measure", func(s *Spec) { s.Scale.Measure = 0 }},
		{"negative slot", func(s *Spec) { s.Threads[0].Slot = -1 }},
	}
	for _, m := range mutations {
		spec := pairSpec("gcc", "eon", core.EventOnly{})
		m.mut(&spec)
		res, err := Run(spec)
		if err == nil || res != nil {
			t.Errorf("%s: want validation error, got (%v, %v)", m.name, res, err)
			continue
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			t.Errorf("%s: surfaced as recovered panic, want plain validation error: %v", m.name, err)
		}
	}
}

func TestSpecValidateAcceptsDefaults(t *testing.T) {
	if err := pairSpec("gcc", "eon", core.EventOnly{}).Validate(); err != nil {
		t.Fatalf("default pair spec invalid: %v", err)
	}
	if err := DefaultMachine().Validate(); err != nil {
		t.Fatalf("default machine invalid: %v", err)
	}
	if err := PaperScale().Validate(); err != nil {
		t.Fatalf("paper scale invalid: %v", err)
	}
	if err := QuickScale().Validate(); err != nil {
		t.Fatalf("quick scale invalid: %v", err)
	}
}

// An internal invariant panic must be recovered into a *PanicError
// carrying the spec fingerprint, not kill the caller.
func TestPanicBoundaryRecoversToError(t *testing.T) {
	testHookPostBuild = func() { panic("injected invariant violation") }
	defer func() { testHookPostBuild = nil }()

	res, err := Run(singleSpec("gcc", unitScale()))
	if res != nil || err == nil {
		t.Fatalf("want recovered panic error, got (%v, %v)", res, err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Fingerprint == "" || len(pe.Stack) == 0 {
		t.Errorf("panic error missing diagnostics: fp=%q stack=%d bytes", pe.Fingerprint, len(pe.Stack))
	}
}

// The watchdog must not change results: the same spec with and without
// aggressive-but-unreached watchdog settings yields identical output,
// and the fingerprint ignores the watchdog entirely.
func TestWatchdogExcludedFromFingerprintAndResults(t *testing.T) {
	plain := singleSpec("gcc", unitScale())
	guarded := plain
	guarded.Watchdog = Watchdog{Timeout: time.Hour, StallCycles: 10_000_000}

	fpA, err := plain.FingerprintJSON()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := guarded.FingerprintJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(fpA) != string(fpB) {
		t.Fatal("watchdog settings leaked into the fingerprint")
	}

	ra, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(guarded)
	if err != nil {
		t.Fatal(err)
	}
	if ra.WallCycles != rb.WallCycles || ra.IPCTotal != rb.IPCTotal {
		t.Fatalf("watchdog changed results: %d/%.6f vs %d/%.6f",
			ra.WallCycles, ra.IPCTotal, rb.WallCycles, rb.IPCTotal)
	}
}
