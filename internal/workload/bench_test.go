package workload

import (
	"testing"

	"soemt/internal/isa"
)

var sinkUop isa.Uop

// BenchmarkGeneratorAt times the pure per-position generator on the
// gcc profile, one micro-op per op.
func BenchmarkGeneratorAt(b *testing.B) {
	g := NewOffset(MustByName("gcc"), 0)
	for i := 0; i < b.N; i++ {
		sinkUop = g.At(uint64(i))
	}
}

// BenchmarkStreamNext times the pipeline's view of the generator, one
// micro-op per op: "sequential" reads straight on; "rewind" models the
// fetch pattern around thread switches, reading 112 micro-ops (a ROB
// plus a fetch queue) past the resume point and seeking back to it
// every 256 micro-ops.
func BenchmarkStreamNext(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		s := NewStream(NewOffset(MustByName("gcc"), 0), 0)
		for i := 0; i < b.N; i++ {
			sinkUop = s.Next()
		}
	})
	b.Run("rewind", func(b *testing.B) {
		s := NewStream(NewOffset(MustByName("gcc"), 0), 0)
		var resume uint64
		for i := 0; i < b.N; i++ {
			if i%256 == 255 {
				s.Seek(resume)
			} else if i%256 == 143 {
				resume = s.Pos() - 112
			}
			sinkUop = s.Next()
		}
	})
}
