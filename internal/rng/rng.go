// Package rng provides small deterministic pseudo-random number
// generators used throughout the simulator.
//
// Two flavours are provided:
//
//   - Stream: a sequential SplitMix64 generator for places where a
//     classic stateful PRNG is convenient (e.g. shuffling experiment
//     orders).
//   - Hash-based, counter-mode helpers (At, Uint64At, ...): pure
//     functions of (seed, index). Workload generation uses these so a
//     thread's instruction stream can be re-read from any position in
//     O(1) — required because a thread switch squashes in-flight
//     instructions and the front end must rewind to the retirement
//     point.
//
// math/rand is deliberately avoided: its stream is not guaranteed
// stable across Go releases, and it cannot be indexed randomly.
package rng

// golden is the SplitMix64 increment (2^64 / phi).
const golden = 0x9e3779b97f4a7c15

// mix is the SplitMix64 output function: a bijective finalizer with
// good avalanche behaviour, also usable as a standalone integer hash.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Mix64 exposes the SplitMix64 finalizer as a general-purpose hash.
func Mix64(z uint64) uint64 { return mix(z) }

// Uint64At returns the index-th value of the counter-mode stream
// identified by seed. It is a pure function: the same (seed, index)
// always yields the same value.
func Uint64At(seed, index uint64) uint64 {
	return mix((seed + golden) ^ mix(index*golden+golden))
}

// Float64At returns a uniform float64 in [0, 1) drawn from the
// counter-mode stream identified by seed at the given index.
func Float64At(seed, index uint64) float64 {
	// 53 high-quality bits -> [0,1).
	return float64(Uint64At(seed, index)>>11) / (1 << 53)
}

// Counter returns the index-dependent half of Uint64At. Draws from
// several streams at one index share it, so each further draw costs
// one mix instead of two: Uint64At(seed, i) == Draw(seed, Counter(i))
// and Float64At(seed, i) == DrawFloat64(seed, Counter(i)).
func Counter(index uint64) uint64 { return mix(index*golden + golden) }

// Draw returns the value of the counter-mode stream identified by seed
// at the index whose Counter is c.
func Draw(seed, c uint64) uint64 { return mix((seed + golden) ^ c) }

// DrawFloat64 is Float64At over a precomputed Counter.
func DrawFloat64(seed, c uint64) float64 {
	// 53 high-quality bits -> [0,1).
	return float64(Draw(seed, c)>>11) / (1 << 53)
}

// IntnAt returns a uniform integer in [0, n) from the counter-mode
// stream. n must be positive.
//
// Modulo-bias audit (kept deliberately): the value is Uint64At % n, so
// the 2^64 mod n smallest residues are favoured by at most n/2^64 in
// probability. Every call site in this repo uses n ≤ 2^20 (DepWindow
// picks, event-kind draws), bounding the bias below 2^-44 — orders of
// magnitude beneath anything observable even across 10^12 draws. A
// rejection-sampling fix would consume a variable number of stream
// values per draw and change every generated instruction stream,
// breaking the bit-identical golden-figure and fast-forward
// equivalence suites, so the biased-but-stable stream is the contract;
// TestModuloStreamPinned pins it.
func IntnAt(seed, index uint64, n int) int {
	if n <= 0 {
		panic("rng: IntnAt with non-positive n")
	}
	return int(Uint64At(seed, index) % uint64(n))
}

// Stream is a sequential SplitMix64 generator. The zero value is a
// valid generator seeded with 0.
type Stream struct {
	state uint64
}

// NewStream returns a Stream seeded with seed.
func NewStream(seed uint64) *Stream { return &Stream{state: seed} }

// Uint64 returns the next value in the stream.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Float64 returns the next value as a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). n must be positive.
// It shares IntnAt's documented modulo bias (< n/2^64, negligible for
// the small n used here) and its stability contract: the stream is
// pinned by TestModuloStreamPinned and must not change.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Sub derives an independent child seed from a parent seed and a label.
// Used to give each workload component (opcode picks, addresses,
// branches, ...) its own counter-mode stream.
func Sub(seed uint64, label string) uint64 {
	h := seed
	for i := 0; i < len(label); i++ {
		h = mix(h ^ uint64(label[i])*golden)
	}
	return h
}
