package workload

import (
	"math"
	"testing"

	"soemt/internal/isa"
	"soemt/internal/rng"
)

// fillProfiles returns every built-in profile plus a stress profile
// whose phases and loop are shorter than one ring block, so a single
// Fill crosses several phase boundaries and loop wraps.
func fillProfiles() []Profile {
	var out []Profile
	for _, n := range Names() {
		out = append(out, MustByName(n))
	}
	p := basicProfile()
	p.Name = "short-phases"
	p.LoopLen = 5
	p.Phases = []Phase{
		{Len: 3, ColdScale: 1, IlpScale: 1},
		{Len: 7, ColdScale: 2, IlpScale: 0.5},
		{Len: 1, ColdScale: 0, IlpScale: 2},
	}
	return append(out, p)
}

// fillStarts returns the positions a property check should start at:
// the stream origin, just before each phase boundary of the first two
// phase cycles, and just before the first loop wraps.
func fillStarts(p Profile) []uint64 {
	starts := []uint64{0, 1}
	var at uint64
	for cycle := 0; cycle < 2; cycle++ {
		for _, ph := range p.Phases {
			at += ph.Len
			starts = append(starts, at-1, at-40)
		}
	}
	for k := uint64(1); k <= 3; k++ {
		starts = append(starts, k*p.LoopLen-1, k*p.LoopLen-33)
	}
	var out []uint64
	for _, s := range starts {
		if s < math.MaxUint64/2 { // at-40 may underflow for short phases
			out = append(out, s)
		}
	}
	return out
}

// TestFillMatchesAt is the block generator's contract: Fill(dst, seq)
// writes exactly At(seq), At(seq+1), ... for every built-in profile in
// both thread slots, across phase boundaries and loop wraps, for block
// lengths from one micro-op to several ring blocks.
func TestFillMatchesAt(t *testing.T) {
	for _, p := range fillProfiles() {
		for slot := 0; slot < 2; slot++ {
			g := NewOffset(p, slot)
			for _, start := range fillStarts(p) {
				for _, n := range []int{1, 7, 64, 300} {
					dst := make([]isa.Uop, n)
					for i := range dst {
						dst[i] = isa.Uop{Seq: ^uint64(0), Taken: true, Size: 99} // stale contents
					}
					g.Fill(dst, start)
					for i, got := range dst {
						if want := g.At(start + uint64(i)); got != want {
							t.Fatalf("%s slot %d: Fill(%d)[%d] = %+v, At = %+v", p.Name, slot, start, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestStreamMatchesAt drives a Stream through a seeded random mix of
// Next, Peek and Seek — backward inside the ring (a squash re-fetch),
// backward past it, and forward jumps inside and beyond it — and checks
// every micro-op it serves against At.
func TestStreamMatchesAt(t *testing.T) {
	for _, p := range fillProfiles() {
		for slot := 0; slot < 2; slot++ {
			g := NewOffset(p, slot)
			for _, start := range fillStarts(p) {
				s := NewStream(g, start)
				r := rng.NewStream(start ^ uint64(slot)<<32)
				for step := 0; step < 400; step++ {
					pos := s.Pos()
					switch op := r.Intn(10); {
					case op == 0 && pos > 0: // backward inside the ring
						s.Seek(pos - 1 - uint64(r.Intn(int(min(pos, 150)))))
					case op == 1: // backward past the ring
						if pos > 300 {
							s.Seek(pos - 300 - uint64(r.Intn(200)))
						}
					case op == 2: // forward inside or just past the ring
						s.Seek(pos + uint64(r.Intn(100)))
					case op == 3: // forward far beyond it
						s.Seek(pos + 1000 + uint64(r.Intn(5000)))
					case op == 4:
						if got, want := s.Peek(), g.At(s.Pos()); got != want {
							t.Fatalf("%s slot %d start %d step %d: Peek at %d = %+v, want %+v",
								p.Name, slot, start, step, s.Pos(), got, want)
						}
					}
					for n := r.Intn(90); n >= 0; n-- {
						at := s.Pos()
						if got, want := s.Next(), g.At(at); got != want {
							t.Fatalf("%s slot %d start %d step %d: Next at %d = %+v, want %+v",
								p.Name, slot, start, step, at, got, want)
						}
						if s.Pos() != at+1 {
							t.Fatalf("Next advanced to %d, want %d", s.Pos(), at+1)
						}
					}
				}
			}
		}
	}
}

// TestKindThresholdsMatchFloatCDF pins kindAt's integer thresholds to
// the float comparison they replace: kind i is chosen exactly when the
// draw's float64 in [0, 1) is below the i-th cumulative fraction and
// not below the previous ones, including draws landing on a threshold.
func TestKindThresholdsMatchFloatCDF(t *testing.T) {
	ref := func(g *Generator, u float64) isa.Kind {
		acc := 0.0
		for i, f := range []float64{
			g.prof.FracLoad, g.prof.FracStore, g.prof.FracBranch, g.prof.FracMul,
			g.prof.FracDiv, g.prof.FracFAdd, g.prof.FracFMul, g.prof.FracFDiv, g.prof.FracPause,
		} {
			acc += f
			if u < acc {
				return kindByCount[i]
			}
		}
		return isa.ALU
	}
	for _, p := range fillProfiles() {
		g := New(p)
		for i := uint64(0); i < 20000; i++ {
			c := rng.Counter(i)
			if got, want := g.kindAt(c), ref(g, rng.DrawFloat64(g.kindSeed, c)); got != want {
				t.Fatalf("%s seq %d: kindAt = %v, float cdf = %v", p.Name, i, got, want)
			}
		}
		// Draws on and next to each threshold.
		for _, cut := range g.kindCut {
			for _, k := range []uint64{cut - 1, cut, cut + 1} {
				if k >= 1<<53 {
					continue
				}
				if got, want := g.kindFor(k), ref(g, float64(k)/(1<<53)); got != want {
					t.Fatalf("%s draw %d: kindFor = %v, float cdf = %v", p.Name, k, got, want)
				}
			}
		}
	}
}
