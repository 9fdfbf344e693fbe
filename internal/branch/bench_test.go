package branch

import (
	"testing"

	"soemt/internal/rng"
)

// BenchmarkPredictUpdate times one predict-then-resolve round trip of
// the default branch unit (the tournament predictor, BTB and RAS at the
// pipeline's default sizes) per op, over 1024 static branches, each
// taken with its own fixed bias.
func BenchmarkPredictUpdate(b *testing.B) {
	const statics = 1024
	type br struct {
		pc, target uint64
		taken      bool
	}
	stream := make([]br, 1<<14)
	for i := range stream {
		k := rng.Uint64At(1, uint64(i)) % statics
		bias := rng.Float64At(2, k)
		stream[i] = br{
			pc:     0x400000 + 4*k,
			target: 0x500000 + 64*k,
			taken:  rng.Float64At(3, uint64(i)) < bias,
		}
	}
	u := NewUnit(16384, 4096, 16, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &stream[i&(len(stream)-1)]
		u.Resolve(s.pc, u.PredictDirection(s.pc), s.taken, s.target)
	}
}
