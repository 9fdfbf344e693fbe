package pipeline

import (
	"testing"

	"soemt/internal/workload"
)

// BenchmarkPipelineCycle times one busy pipeline cycle running gcc:eon
// under switch-on-event: whenever the ROB head waits on an unresolved
// miss, the pipeline squashes, the outgoing thread's stream seeks back
// to its resume point, and the other thread switches in. The timed
// loop therefore covers fetch, rename, issue, retire and the
// post-switch re-fetch.
func BenchmarkPipelineCycle(b *testing.B) {
	p := testMachine()
	streams := []*workload.Stream{
		workload.NewStream(workload.NewOffset(workload.MustByName("gcc"), 0), 0),
		workload.NewStream(workload.NewOffset(workload.MustByName("eon"), 1), 0),
	}
	cur := 0
	p.SetStream(cur, streams[cur], 0)
	step := func(now uint64) {
		if r := p.Cycle(now); r.HeadMissPending {
			streams[cur].Seek(p.Squash())
			cur ^= 1
			p.SetStream(cur, streams[cur], now+1)
		}
	}
	now := uint64(0)
	for ; now < 200_000; now++ {
		step(now)
	}
	p.ResetMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(now)
		now++
	}
	b.ReportMetric(float64(p.Metrics.Retired)/float64(b.N), "uops/cycle")
}
