package workload

import (
	"math"
	"testing"

	"soemt/internal/isa"
)

func basicProfile() Profile {
	return Profile{
		Name: "basic", Seed: 42,
		FracLoad: 0.25, FracStore: 0.10, FracBranch: 0.15,
		ChainFrac: 0.3, DepWindow: 8,
		HotBytes: 16 << 10, WarmBytes: 128 << 10, ColdBytes: 16 << 20,
		PWarm: 0.05, PCold: 0.002, StrideFrac: 0.3,
		LoopLen: 1024, TakenBias: 0.6, NoiseFrac: 0.05,
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := New(basicProfile())
	g2 := New(basicProfile())
	for i := uint64(0); i < 10000; i++ {
		if g1.At(i) != g2.At(i) {
			t.Fatalf("generators diverged at %d", i)
		}
	}
}

func TestGeneratorPureFunction(t *testing.T) {
	g := New(basicProfile())
	// Reading out of order and repeatedly must not change results.
	u1 := g.At(5000)
	for i := uint64(0); i < 1000; i++ {
		g.At(i)
	}
	if g.At(5000) != u1 {
		t.Fatal("At is not a pure function of seq")
	}
}

func TestInstructionMixConverges(t *testing.T) {
	p := basicProfile()
	g := New(p)
	const n = 200000
	var counts [isa.NumKinds]int
	for i := uint64(0); i < n; i++ {
		counts[g.At(i).Kind]++
	}
	check := func(kind isa.Kind, want float64) {
		got := float64(counts[kind]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%v fraction = %.4f, want %.2f", kind, got, want)
		}
	}
	check(isa.Load, p.FracLoad)
	check(isa.Store, p.FracStore)
	check(isa.Branch, p.FracBranch)
	aluWant := 1 - p.FracLoad - p.FracStore - p.FracBranch
	check(isa.ALU, aluWant)
}

func TestAddressesWithinRegions(t *testing.T) {
	g := New(basicProfile())
	p := g.Profile()
	for i := uint64(0); i < 100000; i++ {
		u := g.At(i)
		if !u.Kind.IsMem() {
			continue
		}
		a := u.Addr
		inHot := a >= g.hotBase && a < g.hotBase+p.HotBytes
		inWarm := a >= g.warmBase && a < g.warmBase+p.WarmBytes
		inCold := a >= g.coldBase && a < g.coldBase+p.ColdBytes
		if !inHot && !inWarm && !inCold {
			t.Fatalf("address %#x outside all regions", a)
		}
	}
}

func TestColdFractionApproximatesPCold(t *testing.T) {
	p := basicProfile()
	p.PCold = 0.01
	g := New(p)
	mem, cold := 0, 0
	for i := uint64(0); i < 500000; i++ {
		u := g.At(i)
		if !u.Kind.IsMem() {
			continue
		}
		mem++
		if u.Addr >= g.coldBase {
			cold++
		}
	}
	got := float64(cold) / float64(mem)
	if math.Abs(got-p.PCold) > 0.002 {
		t.Errorf("cold fraction = %.4f, want %.3f", got, p.PCold)
	}
}

func TestThreadSlotsDisjoint(t *testing.T) {
	g0 := NewOffset(basicProfile(), 0)
	g1 := NewOffset(basicProfile(), 1)
	// Regions must not overlap: compare hot bases and a sample of
	// addresses.
	if g0.hotBase == g1.hotBase {
		t.Fatal("slots share hot base")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 20000; i++ {
		if u := g0.At(i); u.Kind.IsMem() {
			seen[u.Addr] = true
		}
	}
	for i := uint64(0); i < 20000; i++ {
		if u := g1.At(i); u.Kind.IsMem() && seen[u.Addr] {
			t.Fatalf("slots share address %#x", u.Addr)
		}
	}
}

func TestPageTableTagDoesNotCollide(t *testing.T) {
	// Thread slots live below 1<<46 where the page-table tag starts
	// (even for generous slot numbers).
	g := NewOffset(basicProfile(), 32)
	for i := uint64(0); i < 50000; i++ {
		if u := g.At(i); u.Kind.IsMem() && u.Addr >= 1<<46 {
			t.Fatalf("address %#x collides with page-table space", u.Addr)
		}
	}
}

func TestBranchBackedgeAlwaysTaken(t *testing.T) {
	p := basicProfile()
	g := New(p)
	found := false
	for i := uint64(0); i < 100000; i++ {
		u := g.At(i)
		if u.Kind == isa.Branch && i%p.LoopLen == p.LoopLen-1 {
			found = true
			if !u.Taken {
				t.Fatal("backedge not taken")
			}
			if u.Target != g.codeBase {
				t.Fatalf("backedge target %#x, want loop top %#x", u.Target, g.codeBase)
			}
		}
	}
	if !found {
		t.Skip("no branch landed on the backedge slot in this window")
	}
}

func TestBranchOutcomesDeterministic(t *testing.T) {
	g := New(basicProfile())
	for i := uint64(0); i < 50000; i++ {
		u := g.At(i)
		if u.Kind == isa.Branch && g.At(i).Taken != u.Taken {
			t.Fatal("branch outcome not deterministic")
		}
	}
}

func TestBranchBiasNearConfigured(t *testing.T) {
	p := basicProfile()
	p.TakenBias = 0.8
	p.NoiseFrac = 0
	g := New(p)
	taken, total := 0, 0
	for i := uint64(0); i < 400000; i++ {
		u := g.At(i)
		if u.Kind != isa.Branch {
			continue
		}
		total++
		if u.Taken {
			taken++
		}
	}
	got := float64(taken) / float64(total)
	// Site biases are drawn per-site, so the aggregate fluctuates with
	// the number of sites; allow a loose band.
	if got < 0.6 || got > 0.95 {
		t.Errorf("taken fraction = %.3f, want near 0.8", got)
	}
}

func TestPhaseScalingChangesColdRate(t *testing.T) {
	p := basicProfile()
	p.PCold = 0.005
	p.Phases = []Phase{
		{Len: 100000, ColdScale: 1, IlpScale: 1},
		{Len: 100000, ColdScale: 10, IlpScale: 1},
	}
	g := New(p)
	coldIn := func(lo, hi uint64) float64 {
		mem, cold := 0, 0
		for i := lo; i < hi; i++ {
			u := g.At(i)
			if !u.Kind.IsMem() {
				continue
			}
			mem++
			if u.Addr >= g.coldBase {
				cold++
			}
		}
		return float64(cold) / float64(mem)
	}
	base := coldIn(0, 100000)
	hot := coldIn(100000, 200000)
	if hot < base*5 {
		t.Errorf("phase cold scaling ineffective: base=%.4f scaled=%.4f", base, hot)
	}
	// Phase schedule is cyclic.
	again := coldIn(200000, 300000)
	if math.Abs(again-base) > 0.004 {
		t.Errorf("phases not cyclic: first=%.4f repeat=%.4f", base, again)
	}
}

// Regression test for the instruction-mix validation hole: a negative
// fraction cancelling an oversized one kept the sum under 1, so a
// profile whose cdf thresholds exceeded 1 (FracLoad=1.2) passed
// Validate and silently generated a negative implicit ALU remainder.
func TestValidateRejectsBadMixFractions(t *testing.T) {
	p := basicProfile()
	p.FracLoad = 1.2
	p.FracStore = -0.3 // sum = 0.9+0.15 < 1: the old sum-only check passed
	if err := p.Validate(); err == nil {
		t.Fatal("profile with FracLoad=1.2/FracStore=-0.3 passed Validate")
	}
	p = basicProfile()
	p.FracPause = -0.01
	if err := p.Validate(); err == nil {
		t.Fatal("negative FracPause passed Validate")
	}
	p = basicProfile()
	p.FracLoad = math.NaN()
	if err := p.Validate(); err == nil {
		t.Fatal("NaN FracLoad passed Validate")
	}
	// The sum check still rejects an all-positive overfull mix.
	p = basicProfile()
	p.FracLoad, p.FracStore, p.FracBranch = 0.6, 0.4, 0.2
	if err := p.Validate(); err == nil {
		t.Fatal("mix summing to 1.2 passed Validate")
	}
	// Other probability knobs are covered by the same class of check.
	p = basicProfile()
	p.NoiseFrac = 1.5
	if err := p.Validate(); err == nil {
		t.Fatal("NoiseFrac=1.5 passed Validate")
	}
	p = basicProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
}

// Regression test for unvalidated phase scale factors: a negative
// ColdScale, or one pushing the scaled PCold/ChainFrac outside [0, 1],
// used to pass Validate and rely on silent mid-stream clamping.
func TestValidateRejectsBadPhaseScales(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Profile)
	}{
		{"negative ColdScale", func(p *Profile) {
			p.Phases = []Phase{{Len: 1000, ColdScale: -1, IlpScale: 1}}
		}},
		{"negative IlpScale", func(p *Profile) {
			p.Phases = []Phase{{Len: 1000, ColdScale: 1, IlpScale: -0.5}}
		}},
		{"PCold scaled past 1", func(p *Profile) {
			p.PCold = 0.5
			p.Phases = []Phase{{Len: 1000, ColdScale: 10, IlpScale: 1}}
		}},
		{"scaled PCold + PWarm past 1", func(p *Profile) {
			p.PCold = 0.3
			p.PWarm = 0.5
			p.Phases = []Phase{{Len: 1000, ColdScale: 2, IlpScale: 1}}
		}},
		{"ChainFrac scaled past 1", func(p *Profile) {
			p.ChainFrac = 0.6
			p.Phases = []Phase{{Len: 1000, ColdScale: 1, IlpScale: 2}}
		}},
		{"Inf ColdScale", func(p *Profile) {
			p.Phases = []Phase{{Len: 1000, ColdScale: math.Inf(1), IlpScale: 1}}
		}},
	}
	for _, tc := range cases {
		p := basicProfile()
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: passed Validate", tc.name)
		}
	}
	// In-range scales still pass, and generation no longer clamps:
	// phaseAt returns exactly the validated product.
	p := basicProfile()
	p.PCold = 0.05
	p.Phases = []Phase{{Len: 1000, ColdScale: 4, IlpScale: 1.5}}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid phased profile rejected: %v", err)
	}
	g := New(p)
	pc, cf, _ := g.phaseAt(0)
	if math.Abs(pc-0.2) > 1e-12 || math.Abs(cf-p.ChainFrac*1.5) > 1e-12 {
		t.Fatalf("phaseAt = (%v, %v), want exact scaled values", pc, cf)
	}
}

// Every built-in profile must survive the tightened validation.
func TestBuiltinProfilesValidate(t *testing.T) {
	for _, n := range Names() {
		p := MustByName(n)
		if err := p.Validate(); err != nil {
			t.Errorf("built-in profile %s: %v", n, err)
		}
	}
}

func TestSrcRegistersEncodeDependenceDistance(t *testing.T) {
	g := New(basicProfile())
	for i := uint64(100); i < 1000; i++ {
		u := g.At(i)
		if u.Src1 == isa.RegNone {
			continue
		}
		// Src register must name a recent producer: within NumRegs.
		dist := (int(i%isa.NumRegs) - int(u.Src1) + isa.NumRegs) % isa.NumRegs
		if dist == 0 {
			dist = isa.NumRegs
		}
		if dist > isa.NumRegs {
			t.Fatalf("impossible dependence distance %d", dist)
		}
	}
}

func TestEarlyStreamNoUnderflow(t *testing.T) {
	g := New(basicProfile())
	// Sequence numbers near zero must not panic or wrap.
	for i := uint64(0); i < 64; i++ {
		u := g.At(i)
		if u.Seq != i {
			t.Fatalf("seq mismatch at %d", i)
		}
	}
}

func TestStreamSeekAndNext(t *testing.T) {
	g := New(basicProfile())
	s := NewStream(g, 0)
	var first []isa.Uop
	for i := 0; i < 100; i++ {
		first = append(first, s.Next())
	}
	if s.Pos() != 100 {
		t.Fatalf("pos = %d", s.Pos())
	}
	s.Seek(50)
	for i := 0; i < 50; i++ {
		u := s.Next()
		if u != first[50+i] {
			t.Fatalf("replay mismatch at %d", 50+i)
		}
	}
	if s.Generator() != g {
		t.Fatal("Generator accessor wrong")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []func(*Profile){
		func(p *Profile) { p.FracLoad = 0.9; p.FracStore = 0.9 },
		func(p *Profile) { p.PWarm = 0.9; p.PCold = 0.9 },
		func(p *Profile) { p.DepWindow = 0 },
		func(p *Profile) { p.LoopLen = 1 },
		func(p *Profile) { p.HotBytes = 0 },
		func(p *Profile) { p.Phases = []Phase{{Len: 0}} },
	}
	for i, mutate := range bad {
		p := basicProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	p := basicProfile()
	if err := p.Validate(); err != nil {
		t.Errorf("good profile rejected: %v", err)
	}
}

func TestNewPanicsOnInvalidProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := basicProfile()
	p.DepWindow = 0
	New(p)
}

func TestBuiltinProfilesValid(t *testing.T) {
	names := Names()
	if len(names) < 12 {
		t.Fatalf("expected >=12 built-in profiles, got %d", len(names))
	}
	for _, n := range names {
		p, ok := ByName(n)
		if !ok {
			t.Fatalf("ByName(%q) failed", n)
		}
		if p.Name != n {
			t.Errorf("profile %q has Name %q", n, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", n, err)
		}
		// Each profile must construct a usable generator.
		g := New(p)
		for i := uint64(0); i < 1000; i++ {
			g.At(i)
		}
	}
}

func TestMustByNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustByName("no-such-benchmark")
}

func TestBuiltinSeedsDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, n := range Names() {
		p := MustByName(n)
		if prev, dup := seen[p.Seed]; dup {
			t.Errorf("profiles %q and %q share seed", prev, n)
		}
		seen[p.Seed] = n
	}
}

func TestStridedColdAccessesShareLines(t *testing.T) {
	p := basicProfile()
	p.PCold = 1 // all accesses cold
	p.PWarm = 0
	p.StrideFrac = 1 // all strided
	g := New(p)
	lines := map[uint64]int{}
	memRefs := 0
	for i := uint64(0); i < 10000; i++ {
		u := g.At(i)
		if u.Kind.IsMem() {
			memRefs++
			lines[u.Addr/64]++
		}
	}
	if len(lines) >= memRefs {
		t.Fatal("strided accesses never share a line")
	}
}

func TestColdWindowSlidesAcrossEpochs(t *testing.T) {
	p := basicProfile()
	p.PCold = 1 // every access cold
	p.PWarm = 0
	p.StrideFrac = 0
	p.ColdBytes = 256 << 20
	g := New(p)
	// Collect the cold-address footprint of two consecutive epochs.
	footprint := func(lo, hi uint64) (min, max uint64) {
		min, max = ^uint64(0), 0
		for i := lo; i < hi; i++ {
			u := g.At(i)
			if !u.Kind.IsMem() {
				continue
			}
			if u.Addr < min {
				min = u.Addr
			}
			if u.Addr > max {
				max = u.Addr
			}
		}
		return min, max
	}
	min1, max1 := footprint(0, 50_000)
	min2, max2 := footprint(coldEpochLen, coldEpochLen+50_000)
	// Each epoch's instantaneous footprint is bounded by the window
	// (the window may wrap the region boundary, which widens the raw
	// span; accept either a bounded span or a wrap).
	span1 := max1 - min1
	if span1 > coldWindow && span1 < p.ColdBytes/2 {
		t.Errorf("epoch-1 footprint %d exceeds window %d without wrapping", span1, coldWindow)
	}
	// Windows move between epochs.
	if min1 == min2 && max1 == max2 {
		t.Error("cold window did not slide between epochs")
	}
}

func TestColdWindowPageFootprintBounded(t *testing.T) {
	p := basicProfile()
	p.PCold = 1
	p.PWarm = 0
	p.StrideFrac = 0
	p.ColdBytes = 256 << 20
	g := New(p)
	pages := map[uint64]bool{}
	for i := uint64(0); i < 100_000; i++ { // within one epoch
		u := g.At(i)
		if u.Kind.IsMem() {
			pages[u.Addr>>12] = true
		}
	}
	// One 8 MiB window = 2048 pages (+1 for wrap edges).
	if len(pages) > 2100 {
		t.Errorf("instantaneous page footprint %d pages; real programs do not thrash page tables like this", len(pages))
	}
}

func TestPauseMixGeneratesPause(t *testing.T) {
	p := basicProfile()
	p.FracPause = 0.05
	g := New(p)
	count := 0
	for i := uint64(0); i < 100_000; i++ {
		u := g.At(i)
		if u.Kind == isa.Pause {
			count++
			if u.Dst != isa.RegNone || u.Src1 != isa.RegNone {
				t.Fatal("PAUSE must have no operands")
			}
		}
	}
	frac := float64(count) / 100_000
	if math.Abs(frac-0.05) > 0.01 {
		t.Errorf("pause fraction = %.4f, want 0.05", frac)
	}
}
