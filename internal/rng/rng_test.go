package rng

import (
	"testing"
	"testing/quick"
)

func TestUint64AtDeterministic(t *testing.T) {
	f := func(seed, index uint64) bool {
		return Uint64At(seed, index) == Uint64At(seed, index)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64AtIndexSensitivity(t *testing.T) {
	seed := uint64(42)
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		v := Uint64At(seed, i)
		if prev, ok := seen[v]; ok {
			t.Fatalf("collision: index %d and %d both map to %#x", prev, i, v)
		}
		seen[v] = i
	}
}

func TestUint64AtSeedSensitivity(t *testing.T) {
	// Adjacent seeds must produce unrelated streams.
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if Uint64At(1, i) == Uint64At(2, i) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds share %d of 1000 outputs", same)
	}
}

// TestCounterDrawSplitsUint64At pins the shared-counter form the
// workload generator uses: a draw over a precomputed Counter is the
// same value as the plain counter-mode call.
func TestCounterDrawSplitsUint64At(t *testing.T) {
	s := NewStream(99)
	for i := 0; i < 10000; i++ {
		seed, index := s.Uint64(), s.Uint64()
		if i%3 == 0 {
			index = uint64(i) // small indices, as generated streams use
		}
		c := Counter(index)
		if got, want := Draw(seed, c), Uint64At(seed, index); got != want {
			t.Fatalf("Draw(%#x, Counter(%d)) = %#x, Uint64At = %#x", seed, index, got, want)
		}
		if got, want := DrawFloat64(seed, c), Float64At(seed, index); got != want {
			t.Fatalf("DrawFloat64(%#x, Counter(%d)) = %v, Float64At = %v", seed, index, got, want)
		}
	}
}

func TestFloat64AtRange(t *testing.T) {
	f := func(seed, index uint64) bool {
		v := Float64At(seed, index)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64AtUniformity(t *testing.T) {
	const n = 200000
	const buckets = 10
	var hist [buckets]int
	for i := uint64(0); i < n; i++ {
		hist[int(Float64At(7, i)*buckets)]++
	}
	want := n / buckets
	for b, got := range hist {
		if got < want*9/10 || got > want*11/10 {
			t.Errorf("bucket %d: got %d, want within 10%% of %d", b, got, want)
		}
	}
}

func TestIntnAtRange(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		v := IntnAt(3, i, 17)
		if v < 0 || v >= 17 {
			t.Fatalf("IntnAt out of range: %d", v)
		}
	}
}

func TestIntnAtPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	IntnAt(1, 1, 0)
}

func TestStreamDeterministic(t *testing.T) {
	a, b := NewStream(99), NewStream(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverged at step %d", i)
		}
	}
}

func TestStreamZeroValueUsable(t *testing.T) {
	var s Stream
	if s.Uint64() == s.Uint64() {
		t.Fatal("zero-value stream repeated a value immediately")
	}
}

func TestStreamIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=-1")
		}
	}()
	NewStream(1).Intn(-1)
}

func TestPermIsPermutation(t *testing.T) {
	s := NewStream(5)
	for _, n := range []int{0, 1, 2, 16, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSubLabelsIndependent(t *testing.T) {
	a := Sub(1, "addresses")
	b := Sub(1, "branches")
	if a == b {
		t.Fatal("different labels produced equal sub-seeds")
	}
	if Sub(1, "addresses") != a {
		t.Fatal("Sub is not deterministic")
	}
	if Sub(2, "addresses") == a {
		t.Fatal("different parent seeds produced equal sub-seeds")
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity over a window; a true bijection cannot be
	// exhaustively verified but collisions in 1e5 consecutive inputs
	// would indicate a broken finalizer.
	seen := make(map[uint64]struct{}, 100000)
	for i := uint64(0); i < 100000; i++ {
		v := Mix64(i)
		if _, dup := seen[v]; dup {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[v] = struct{}{}
	}
}

func BenchmarkUint64At(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Uint64At(1, uint64(i))
	}
	_ = sink
}

// TestModuloStreamPinned pins the exact IntnAt/Intn output streams.
// Both carry a documented (negligible, < n/2^64) modulo bias; fixing
// it would consume a variable number of stream values per draw and
// silently change every generated instruction stream, breaking the
// bit-identical golden-figure and fast-forward equivalence suites.
// If this test fails, the change broke replay compatibility — either
// revert it or deliberately re-baseline every golden artifact.
func TestModuloStreamPinned(t *testing.T) {
	wantAt := []int{13, 0, 11, 10, 7, 0, 9, 11}
	for i, want := range wantAt {
		if got := IntnAt(0xDEADBEEF, uint64(i), 17); got != want {
			t.Errorf("IntnAt(0xDEADBEEF, %d, 17) = %d, want %d", i, got, want)
		}
	}
	s := NewStream(12345)
	wantSeq := []int{944, 597, 405, 450, 363, 646, 546, 68}
	for i, want := range wantSeq {
		if got := s.Intn(1000); got != want {
			t.Errorf("Stream(12345).Intn(1000) draw %d = %d, want %d", i, got, want)
		}
	}
}

// TestIntnAtBiasNegligible sanity-checks the documented bias bound:
// empirical uniformity over the small n actually used (n ≤ 2^20)
// shows no measurable skew at test sample sizes.
func TestIntnAtBiasNegligible(t *testing.T) {
	const n, draws = 17, 200000
	var counts [n]int
	for i := uint64(0); i < draws; i++ {
		counts[IntnAt(99, i, n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if dev := (float64(c) - want) / want; dev > 0.05 || dev < -0.05 {
			t.Errorf("value %d drawn %d times, want ~%.0f (dev %.3f)", v, c, want, dev)
		}
	}
}
