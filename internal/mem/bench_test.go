package mem

import "testing"

// BenchmarkAccessData times Hierarchy.AccessData, one access per op, on
// three address mixes over the default hierarchy: a working set a
// quarter of L1D (every access hits L1), one four times L1D but well
// inside L2 (every access misses L1 and hits L2), and a stream of
// never-seen lines (every access misses L2; time steps past the memory
// latency so the MSHRs never fill). A mix that stops landing where it
// aims fails the benchmark rather than timing the wrong path.
func BenchmarkAccessData(b *testing.B) {
	cfg := DefaultConfig()
	line := uint64(cfg.L1D.LineSize)
	l1Lines := uint64(cfg.L1D.SizeKB * 1024 / cfg.L1D.LineSize)
	for _, m := range []struct {
		name  string
		lines uint64 // working set in lines; 0 = every line new
		step  uint64 // cycles between accesses
		aim   func(AccessResult) bool
	}{
		{"l1-hit", l1Lines / 4, 1, func(r AccessResult) bool { return !r.L1Miss }},
		{"l2-hit", 4 * l1Lines, 1, func(r AccessResult) bool { return r.L1Miss && !r.L2Miss }},
		{"miss", 0, uint64(cfg.MemLatency) + 1, func(r AccessResult) bool { return r.L2Miss }},
	} {
		b.Run(m.name, func(b *testing.B) {
			h := mustHierarchy(cfg)
			addr := func(i uint64) uint64 {
				if m.lines == 0 {
					return i * line
				}
				return (i % m.lines) * line
			}
			// One pass installs the working set; the jump in time lets
			// every fill it started complete.
			now := uint64(0)
			for i := uint64(0); i < m.lines; i++ {
				h.AccessData(now, addr(i), false)
				now++
			}
			now += 1 << 20
			off := m.lines
			misaimed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !m.aim(h.AccessData(now, addr(off+uint64(i)), false)) {
					misaimed++
				}
				now += m.step
			}
			b.StopTimer()
			if misaimed > 0 {
				b.Fatalf("%d of %d accesses missed the %s path", misaimed, b.N, m.name)
			}
		})
	}
}
