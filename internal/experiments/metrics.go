package experiments

import (
	"fmt"
	"time"

	"soemt/internal/obs"
)

// RunnerMetrics is a point-in-time snapshot of the experiment engine's
// instrumentation: how many simulations actually executed, how many
// were served from the cache layers, and the aggregate simulation
// rate. Obtain one from Runner.Metrics or Cache.Metrics.
type RunnerMetrics struct {
	RunsStarted   uint64 // simulations dispatched to sim.Run
	RunsCompleted uint64 // simulations that returned a result
	RunsFailed    uint64 // simulations that returned an error
	TruncatedRuns uint64 // completed runs with Result.Truncated set

	MemHits   uint64 // served from the in-memory layer
	DiskHits  uint64 // served from the on-disk store
	DedupHits uint64 // joined an identical in-flight run (singleflight)
	Misses    uint64 // required a fresh simulation

	SimulatedCycles uint64 // measured cycles across completed runs
	// SimTime is the simulation time summed across completed runs. Runs
	// overlap in the pool, so it exceeds the elapsed wall time of a
	// parallel invocation.
	SimTime time.Duration
}

// CacheHits returns hits across all layers (memory, disk, in-flight).
func (m RunnerMetrics) CacheHits() uint64 { return m.MemHits + m.DiskHits + m.DedupHits }

// CyclesPerSec returns the per-simulation throughput: simulated
// cycles per second of simulation time.
func (m RunnerMetrics) CyclesPerSec() float64 {
	if m.SimTime <= 0 {
		return 0
	}
	return float64(m.SimulatedCycles) / m.SimTime.Seconds()
}

// String renders a one-line summary suitable for Progress callbacks.
func (m RunnerMetrics) String() string {
	return fmt.Sprintf(
		"runs=%d/%d (failed=%d truncated=%d) cache hits=%d (mem=%d disk=%d dedup=%d) misses=%d sim=%.2gMcyc %.3gMcyc/s sim_time=%s",
		m.RunsCompleted, m.RunsStarted, m.RunsFailed, m.TruncatedRuns,
		m.CacheHits(), m.MemHits, m.DiskHits, m.DedupHits, m.Misses,
		float64(m.SimulatedCycles)/1e6, m.CyclesPerSec()/1e6,
		m.SimTime.Round(time.Millisecond))
}

// metrics is the collector behind RunnerMetrics, backed by the
// observability registry's atomic counters (DESIGN.md §10) so the same
// values are visible through Cache.Observability alongside everything
// the simulations publish there. All updates are atomic adds;
// snapshot() is safe to call from any goroutine while runs are in
// flight (the previous ad-hoc atomic fields predated the registry and
// could not be aggregated with per-run metrics) — it is a
// consistent-enough view for progress reporting, not a transaction.
type metrics struct {
	reg *obs.Registry

	runsStarted   *obs.Counter
	runsCompleted *obs.Counter
	runsFailed    *obs.Counter
	truncated     *obs.Counter

	memHits   *obs.Counter
	diskHits  *obs.Counter
	dedupHits *obs.Counter
	misses    *obs.Counter

	// dedupRetries counts singleflight followers that re-elected a new
	// leader because the previous one's ctx was cancelled mid-run
	// (DESIGN.md §11); visible via the registry as cache.dedup_retries.
	dedupRetries *obs.Counter

	// Peer cache tier outcomes (DESIGN.md §13): hits are sha256-verified
	// results pulled from the ring owner, misses are clean ErrNoPeer
	// answers, errors are degraded fetches (network fault, corruption,
	// schema drift) that fell through to local execution.
	peerHits   *obs.Counter
	peerMisses *obs.Counter
	peerErrors *obs.Counter

	simCycles    *obs.Counter
	simTimeNanos *obs.Counter
}

// newMetrics resolves the collector's counters in reg (a fresh
// registry when nil).
func newMetrics(reg *obs.Registry) metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return metrics{
		reg:           reg,
		runsStarted:   reg.Counter("runner.runs_started"),
		runsCompleted: reg.Counter("runner.runs_completed"),
		runsFailed:    reg.Counter("runner.runs_failed"),
		truncated:     reg.Counter("runner.runs_truncated"),
		memHits:       reg.Counter("cache.mem_hits"),
		diskHits:      reg.Counter("cache.disk_hits"),
		dedupHits:     reg.Counter("cache.dedup_hits"),
		misses:        reg.Counter("cache.misses"),
		dedupRetries:  reg.Counter("cache.dedup_retries"),
		peerHits:      reg.Counter("cluster.peer_fill_hits"),
		peerMisses:    reg.Counter("cluster.peer_fill_misses"),
		peerErrors:    reg.Counter("cluster.peer_fill_errors"),
		simCycles:     reg.Counter("runner.sim_cycles"),
		simTimeNanos:  reg.Counter("runner.sim_time_nanos"),
	}
}

func (m *metrics) snapshot() RunnerMetrics {
	return RunnerMetrics{
		RunsStarted:     m.runsStarted.Load(),
		RunsCompleted:   m.runsCompleted.Load(),
		RunsFailed:      m.runsFailed.Load(),
		TruncatedRuns:   m.truncated.Load(),
		MemHits:         m.memHits.Load(),
		DiskHits:        m.diskHits.Load(),
		DedupHits:       m.dedupHits.Load(),
		Misses:          m.misses.Load(),
		SimulatedCycles: m.simCycles.Load(),
		SimTime:         time.Duration(m.simTimeNanos.Load()),
	}
}
