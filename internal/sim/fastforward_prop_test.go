package sim

import (
	"math/rand"
	"testing"

	"soemt/internal/core"
	"soemt/internal/pipeline"
	"soemt/internal/workload"
)

// fuzzedSpec derives a randomized but valid spec from rng: random
// workload mix, policy, Δ, max-cycles quota and injected events. The
// generator deliberately squeezes Δ and the quota far below their
// paper defaults so skip windows constantly collide with Δ-sample
// boundaries and quota expiries — the exact off-by-one surface the
// fast-forward engine's horizon clipping must survive.
func fuzzedSpec(rng *rand.Rand, n int) Spec {
	names := []string{"swim", "mcf", "gcc", "eon", "gzip", "art", "crafty", "vpr"}
	m := DefaultMachine()
	m.Controller.Delta = 20_000 + uint64(rng.Intn(5))*10_000
	m.Controller.MaxCyclesQuota = 0
	if rng.Intn(3) > 0 {
		// Keep the quota under Δ/N so quota expiries and Δ boundaries
		// interleave rather than one always clipping the other.
		m.Controller.MaxCyclesQuota = 2_000 + uint64(rng.Intn(3_000))
	}
	switch {
	case n <= 2:
		switch rng.Intn(3) {
		case 0:
			m.Controller.Policy = core.EventOnly{}
		case 1:
			m.Controller.Policy = core.Fairness{F: float64(rng.Intn(5)) * 0.25}
		default:
			m.Controller.Policy = core.TimeShare{QuotaCycles: float64(5_000 + rng.Intn(10_000))}
		}
	default:
		switch rng.Intn(3) {
		case 0:
			m.Controller.Policy = core.Fairness{F: float64(rng.Intn(5)) * 0.25}
		case 1:
			w := make([]float64, n)
			for i := range w {
				w[i] = float64(1 + rng.Intn(4))
			}
			m.Controller.Policy = core.WFQGrant{Weights: w}
		default:
			m.Controller.Policy = core.Malthusian{MinAggFrac: 1, ProbeEvery: 2 + rng.Intn(3)}
		}
	}
	s := Spec{
		Machine: m,
		Scale:   Scale{CacheWarm: 10_000, Warm: 5_000, Measure: 20_000, MaxCycles: 5_000_000},
	}
	for i := 0; i < n; i++ {
		ts := ThreadSpec{
			Profile:  workload.MustByName(names[rng.Intn(len(names))]),
			Slot:     i,
			StartSeq: uint64(rng.Intn(4)) * 25_000,
		}
		if rng.Intn(2) == 0 {
			at := uint64(2_000 + rng.Intn(8_000))
			ts.Events = []pipeline.InjectedStall{
				{AtInstr: at, StallCycles: uint64(500 + rng.Intn(20_000))},
				{AtInstr: at + uint64(5_000+rng.Intn(10_000)), StallCycles: uint64(100 + rng.Intn(5_000))},
			}
		}
		s.Threads = append(s.Threads, ts)
	}
	return s
}

// TestFastForwardFuzzedSpecDifferential is the property test for the
// idle-skip engine: over randomized specs (N = 2 and N = 4, fuzzed
// policies, Δ, quotas and injected events) the fast-forward engine
// must produce byte-identical Results to the brute-force
// cycle-by-cycle reference. Seeds are fixed, so a failure reproduces
// deterministically. CI additionally runs this under -race.
func TestFastForwardFuzzedSpecDifferential(t *testing.T) {
	type cell struct {
		seed int64
		n    int
	}
	var cells []cell
	for seed := int64(1); seed <= 4; seed++ {
		cells = append(cells, cell{seed, 2}, cell{seed, 4})
	}
	for _, c := range cells {
		c := c
		t.Run(fmtCell(c.seed, c.n), func(t *testing.T) {
			t.Parallel()
			spec := fuzzedSpec(rand.New(rand.NewSource(c.seed^int64(c.n)<<32)), c.n)
			if err := spec.Validate(); err != nil {
				t.Fatalf("fuzzed spec invalid: %v", err)
			}
			ref := spec
			ref.Engine = "cycle-by-cycle"
			refRes, err := Run(ref)
			if err != nil {
				t.Fatalf("cycle-by-cycle run: %v", err)
			}
			ff := spec
			ff.Engine = "fast-forward"
			ffRes, err := Run(ff)
			if err != nil {
				t.Fatalf("fast-forward run: %v", err)
			}
			refJSON := mustResultJSON(t, refRes)
			ffJSON := mustResultJSON(t, ffRes)
			if string(refJSON) != string(ffJSON) {
				t.Errorf("fast-forward diverges from reference\nfast-forward: %s\nreference:    %s",
					firstDiff(ffJSON, refJSON), firstDiffOther(ffJSON, refJSON))
			}
		})
	}
}

func fmtCell(seed int64, n int) string {
	return "seed" + string(rune('0'+seed)) + "-N" + string(rune('0'+n))
}
