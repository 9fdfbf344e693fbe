// Command soebenchmark is the repository benchmark: three workloads
// that each put a different layer of soemt on the critical path,
// measured end to end with tracing off, and layer by layer in a
// separate traced run. README.md in this directory records why each
// workload was chosen and which layer metric should move which
// end-to-end metric.
//
//	bash benchmark/run.sh --workload figures-cold|skip-heavy|serve-mixed \
//	     --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records
// the seed, the host and the sample counts behind every percentile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string  // build/scratch directory inside the checkout
	busy     float64 // positive control: extra busy fraction per simulation
}

// outcome is what one workload run reports.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int // failed operations, including failed output checks
	wrong     int // failed output checks
	info      map[string]any
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, on every
// workload. An answer is one result a user waits for: a simulation
// result on the simulation workloads, a fast-tier response in
// serve-mixed's capacity stage. Request latencies moved by 25–60%
// between runs on a shared 2-core host, so they are reported on the
// info line and as per-layer metrics, not gated here.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"answers_per_cpu_s", "1/s"},
}

// perLayer lists the metrics every traced run reports. A layer a
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"experiments.matrix_s", "s"},
	{"experiments.fig5_s", "s"},
	{"experiments.example1_s", "s"},
	{"experiments.timeshare_s", "s"},
	{"experiments.pool_util", "frac"},
	{"cache.misses", "count"},
	{"cache.mem_hits", "count"},
	{"cache.disk_hits", "count"},
	{"cluster.peer_fill_hits", "count"},
	{"cache.self_ms_p50", "ms"},
	{"sim.runs", "count"},
	{"sim.host_s", "s"},
	{"sim.ns_per_instr", "ns"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.allocs_per_run", "count"},
	{"core.skip_frac", "frac"},
	{"core.switches_per_kinstr", "count"},
	{"pipe.rename_stall_frac", "frac"},
	{"pipe.rob_occupancy_avg", "count"},
	{"workload.ns_per_uop", "ns"},
	{"branch.ns_per_predict", "ns"},
	{"mem.ns_per_access.l1", "ns"},
	{"mem.ns_per_access.l2", "ns"},
	{"mem.ns_per_access.miss", "ns"},
	{"serve.fast_handler_us_p50", "us"},
	{"serve.submit_us_p50", "us"},
	{"serve.queue_wait_ms_tail", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"serve.batches", "count"},
	{"serve.sim_share", "frac"},
	{"proxy.self_us_p50", "us"},
	{"proxy.retries", "count"},
	{"proxy.hedges", "count"},
	{"proxy.shed", "count"},
	{"cluster.forward_us_p50", "us"},
	{"cluster.peer_fill_ms_p50", "ms"},
	{"cluster.ring_owner_ns", "ns"},
	{"experiments.fingerprint_us", "us"},
	{"experiments.entry_decode_us", "us"},
	{"loadgen.late_tail_ms", "ms"},
	{"loadgen.fast_p50_ms", "ms"},
	{"loadgen.fast_tail_ms", "ms"},
	{"loadgen.auto_p50_ms", "ms"},
	{"loadgen.exact_p50_ms", "ms"},
	{"loadgen.exact_tail_ms", "ms"},
	{"loadgen.fast_max_rps", "1/s"},
	{"trace.overhead_frac", "frac"},
}

var workloads = map[string]func(config) (*outcome, error){
	"figures-cold": runFiguresCold,
	"skip-heavy":   runSkipHeavy,
	"serve-mixed":  runServeMixed,
}

func main() {
	var cfg config
	var trace int
	var digests bool
	flag.StringVar(&cfg.workload, "workload", "", "figures-cold, skip-heavy or serve-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed (figures-cold is the paper's fixed matrix and ignores it)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds for the time-bounded workloads")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch state and span dumps")
	flag.Float64Var(&cfg.busy, "control-busy", 0, "positive control: spin this fraction of each simulation's time extra")
	flag.BoolVar(&digests, "digests", false, "print the output digests the checks compare against, computed by this build, and exit")
	flag.Parse()
	cfg.trace = trace == 1

	if digests {
		if err := printDigests(cfg); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || trace < 0 || trace > 1 {
		fatal(fmt.Errorf("usage: --workload figures-cold|skip-heavy|serve-mixed --seed N --seconds S --trace 0|1"))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	oc, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	report(cfg, oc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soebenchmark:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run record and then the result line.
func report(cfg config, oc *outcome) {
	info := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	if cfg.busy > 0 {
		info["control_busy"] = cfg.busy
	}
	for k, v := range oc.info {
		info[k] = v
	}
	line, _ := json.Marshal(map[string]any{"info": info})
	fmt.Println(string(line))

	defs, vals := endToEnd, oc.e2e
	if cfg.trace {
		defs, vals = perLayer, oc.layers
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.name] = metric{Value: finite(vals[d.name]), Unit: d.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{oc.wrong == 0, oc.attempted, oc.failed, metrics})
	fmt.Println(string(out))
}

// cpuTime returns the CPU time the process has used so far. Unlike wall
// time it leaves out time the host's hypervisor gave to other tenants
// (steal), which on a shared 2-core host moved wall-clock throughput
// by 20–30% between runs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size so far. Each
// run is its own process, so no other workload's peak carries over.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// scratchDir returns a fresh, empty directory under the run's scratch
// area.
func scratchDir(cfg config, name string) (string, error) {
	dir, err := os.MkdirTemp(cfg.out, "work-"+name+"-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// dumpSpans writes the traced run's spans next to the build output.
func dumpSpans(cfg config, rec *recorder) string {
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := rec.writeFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "soebenchmark: writing spans:", err)
		return ""
	}
	return path
}
