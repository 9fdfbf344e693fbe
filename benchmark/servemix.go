package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"soemt/internal/cluster"
	"soemt/internal/obs"
	"soemt/internal/proxy"
	"soemt/internal/serve"
	"soemt/internal/workload/spec"
)

// serve-mixed: an open-loop replay of serve-mixed.yaml through an
// in-process soeproxy to three soeserve nodes on loopback, followed by
// a ladder of fast-only rate stages.

//go:embed serve-mixed.yaml
var serveMixedYAML []byte

const (
	fleetSize = 3
	// peerGroup names the client group sent straight to non-owner
	// nodes; its specs are primed on their owners before timing.
	peerGroup = "peer-readers"
	// fastLimit is the fast-tier tail latency a ladder stage must stay
	// under to count as sustained.
	fastLimit = 5 * time.Millisecond
	// benchSpanHeader carries the cluster transport span to the node
	// handler, linking node spans to their proxy parents: the proxy
	// itself forwards no request id.
	benchSpanHeader = "X-Soebenchmark-Span"
	setupReps       = 31
	// capacityTime is how long the closed-loop capacity stage runs.
	capacityTime = 3 * time.Second
	// capacityWindow slices the capacity stage; the stage reports the
	// middle half of the windows, so a collector pause or a scheduling
	// hiccup in one window does not move it.
	capacityWindow = 100 * time.Millisecond
)

// fleet is one proxy, its nodes and the load generator's client.
type fleet struct {
	nodes      []*serve.Server
	servers    []*httptest.Server
	clusters   []*cluster.Cluster
	urls       []string
	byName     map[string]string // node name -> URL
	ring       *cluster.Ring
	proxy      *proxy.Proxy
	proxyReg   *obs.Registry
	proxySrv   *httptest.Server
	transports []*http.Transport
	client     *http.Client
}

// fleetTransport is the fleet's own transport: the settings of
// http.DefaultTransport, which the cluster uses when none is given, in
// a private pool the fleet closes when it stops.
func fleetTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// startFleet builds the cluster: nodes with per-node disk caches under
// dir joined by peer fill, and the proxy. With a recorder, every
// handler and every cluster transport records spans.
func startFleet(dir string, rec *recorder, probe *simProbe) (*fleet, error) {
	f := &fleet{byName: map[string]string{}}
	for i := 0; i < fleetSize; i++ {
		name := fmt.Sprintf("n%d", i+1)
		s, err := serve.NewServer(serve.Config{
			NodeName:        name,
			CacheDir:        filepath.Join(dir, name),
			MaxTerminalJobs: 1 << 16,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		s.Cache().SetRunFunc(probe.run)
		f.nodes = append(f.nodes, s)
		srv := httptest.NewServer(traceNode(rec, s.Handler()))
		f.servers = append(f.servers, srv)
		f.urls = append(f.urls, srv.URL)
		f.byName[name] = srv.URL
	}
	f.ring = cluster.NewRing(f.urls, 64)
	for i, s := range f.nodes {
		tr := fleetTransport()
		f.transports = append(f.transports, tr)
		cl, err := cluster.New(cluster.Config{
			Self: f.urls[i], Nodes: f.urls, Registry: s.Observability(),
			Transport: traceTransport(rec, tr),
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.clusters = append(f.clusters, cl)
		s.SetPeers(cl, 0)
	}
	tr := fleetTransport()
	f.transports = append(f.transports, tr)
	f.proxyReg = obs.NewRegistry()
	pcl, err := cluster.New(cluster.Config{Nodes: f.urls, Registry: f.proxyReg, Transport: traceTransport(rec, tr)})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.clusters = append(f.clusters, pcl)
	if f.proxy, err = proxy.New(proxy.Config{Cluster: pcl, Registry: f.proxyReg}); err != nil {
		f.stop()
		return nil, err
	}
	f.proxySrv = httptest.NewServer(traceProxy(rec, f.proxy.Handler()))
	// The load generator: at most nproc connections, kept alive, for its
	// nproc sending goroutines.
	conns := runtime.NumCPU()
	lt := &http.Transport{MaxConnsPerHost: conns, MaxIdleConns: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	f.transports = append(f.transports, lt)
	f.client = &http.Client{Transport: lt, Timeout: time.Minute}
	return f, nil
}

// stop shuts every server down and waits for accepted jobs.
func (f *fleet) stop() {
	if f.proxySrv != nil {
		f.proxySrv.Close()
	}
	for _, cl := range f.clusters {
		cl.StopProbes()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	for _, s := range f.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.Drain(ctx)
		cancel()
	}
	for _, tr := range f.transports {
		tr.CloseIdleConnections()
	}
}

func (f *fleet) waitIdle() {
	for _, s := range f.nodes {
		s.WaitIdle()
	}
}

// counter sums a registry counter over every node.
func (f *fleet) counter(name string) float64 {
	var n uint64
	for _, s := range f.nodes {
		n += s.Observability().Counter(name).Load()
	}
	return float64(n)
}

// mixedRequest is one scheduled request of the mixed phase.
type mixedRequest struct {
	rq     serve.RunRequest
	key    string // spec identity (spec.Request.Key)
	target string // proxy URL, or a non-owner node for peer readers
}

// serveSchedule expands serve-mixed.yaml for seed over d.
func serveSchedule(seed uint64, d time.Duration) (*spec.Spec, []spec.Request, error) {
	sp, err := spec.Parse(serveMixedYAML)
	if err != nil {
		return nil, nil, err
	}
	sp.Seed, sp.Duration = seed, d
	reqs, err := sp.Schedule()
	return sp, reqs, err
}

func runRequest(r spec.Request) serve.RunRequest {
	return serve.RunRequest{Pair: r.Pair, Bench: r.Bench, F: r.F, Scale: r.Scale, Tier: r.Tier}
}

// servePlan is everything the timed phase needs, built during set-up.
type servePlan struct {
	fleet  *fleet
	sched  []mixedRequest
	due    []time.Duration
	primes []serve.RunRequest // peer-group specs, primed on their owners
	fast   []serve.RunRequest // ladder requests, cycled
}

func planServe(cfg config, dir string, rec *recorder, probe *simProbe, mixed time.Duration) (*servePlan, error) {
	sp, reqs, err := serveSchedule(cfg.seed, mixed)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(dir, rec, probe)
	if err != nil {
		return nil, err
	}
	p := &servePlan{fleet: f}
	for _, c := range sp.Clients {
		for _, e := range c.Workloads {
			rq := serve.RunRequest{Pair: e.Pair, Bench: e.Bench, F: e.F, Scale: sp.ScaleOrDefault(), Tier: e.Tier}
			switch {
			case c.Name == peerGroup:
				p.primes = append(p.primes, rq)
			case e.Tier == serve.TierFast:
				p.fast = append(p.fast, rq)
			}
		}
	}
	nth := 0
	for _, r := range reqs {
		mr := mixedRequest{rq: runRequest(r), key: r.Key(), target: f.proxySrv.URL}
		if strings.HasPrefix(r.Client, peerGroup+"/") {
			fp, err := mr.rq.RouteKey()
			if err != nil {
				f.stop()
				return nil, err
			}
			// Alternate between the two non-owners so both fill.
			pref := f.ring.Preference(fp)
			mr.target = pref[1+nth%(len(pref)-1)]
			nth++
		}
		p.sched = append(p.sched, mr)
		p.due = append(p.due, r.At)
	}
	return p, nil
}

// post sends rq to base and returns the status, the body and when the
// answer arrived.
func post(c *http.Client, base string, rq serve.RunRequest) (int, []byte, time.Time, error) {
	body, err := json.Marshal(rq)
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	resp, err := c.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Now(), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Now(), err
}

// serveResult is what one pass of serve-mixed measured.
type serveResult struct {
	setup    time.Duration
	wall     time.Duration
	answers  []float64 // ms; +Inf for a failed request
	byTier   map[string][]float64
	late     []float64
	maxRPS   float64
	capacity float64       // closed-loop fast answers per wall second
	perCPU   float64       // closed-loop fast answers per process CPU second
	simHost  time.Duration // simulation time of the timed phase
	ladder   []map[string]any
	attempts int
	failures int // failed requests and failed checks
	wrong    int // failed checks, bad statuses included
	checks   map[string]any
	views    []serve.JobView
	fleet    *fleet
	distinct int
}

// servePass runs set-up, priming, the mixed phase and the ladder.
func servePass(cfg config, rec *recorder, probe *simProbe, exp expectedDigests) (*serveResult, error) {
	base, err := scratchDir(cfg, "serve")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	mixed := time.Duration(float64(cfg.seconds) * 0.6 * float64(time.Second))
	stage := time.Second
	stages := int(float64(cfg.seconds)*0.4/stage.Seconds()) - int(capacityTime/stage)
	if stages < 2 {
		stages = 2
	}

	// Set-up is repeated and the median reported; the plan of the last
	// repetition is the one measured.
	var plan *servePlan
	settle()
	setups := make([]float64, setupReps)
	for i := range setups {
		if plan != nil {
			plan.fleet.stop()
		}
		start := time.Now()
		plan, err = planServe(cfg, filepath.Join(base, strconv.Itoa(i)), rec, probe, mixed)
		setups[i] = float64(time.Since(start))
		if err != nil {
			return nil, err
		}
	}
	f := plan.fleet
	defer f.stop()
	res := &serveResult{setup: time.Duration(median(setups)), byTier: map[string][]float64{}, checks: map[string]any{}, fleet: f}

	// Prime the owners of the peer-read specs (untimed).
	distinct := map[string]bool{}
	for _, rq := range plan.primes {
		rq.Tier = serve.TierExact
		st, body, _, err := post(f.client, f.proxySrv.URL, rq)
		if err != nil || st != http.StatusAccepted {
			return nil, fmt.Errorf("priming %+v: status %d %s %v", rq, st, body, err)
		}
		fp, _ := rq.RouteKey()
		distinct[fp] = true
	}
	f.waitIdle()
	primed := len(probe.durations())

	// Mixed phase.
	n := len(plan.sched)
	status := make([]int, n)
	jobs := make([]string, n)
	start := time.Now()
	shots := replay(start, plan.due, runtime.NumCPU(), func(i int) (time.Time, bool) {
		mr := plan.sched[i]
		st, body, end, err := post(f.client, mr.target, mr.rq)
		status[i] = st
		if err != nil || st/100 != 2 {
			return end, false
		}
		if mr.rq.Tier != serve.TierFast {
			var acc struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(body, &acc) != nil || acc.ID == "" {
				status[i] = -1
				return end, false
			}
			jobs[i] = acc.ID
		}
		return end, true
	})
	f.waitIdle()

	views, err := fetchViews(f, jobs)
	if err != nil {
		return nil, err
	}
	end := start
	for i, s := range shots {
		mr := plan.sched[i]
		res.attempts++
		if mr.rq.Tier != serve.TierFast {
			fp, _ := mr.rq.RouteKey()
			distinct[fp] = true
		}
		lat := s.latencyMS()
		if s.OK && mr.rq.Tier == serve.TierExact {
			v := views[jobs[i]]
			fin, err := time.Parse(time.RFC3339Nano, v.Finished)
			if err != nil || v.State != serve.StateDone {
				lat = infMS()
			} else {
				lat = float64(fin.Sub(start.Add(plan.due[i]))) / 1e6
				if fin.After(end) {
					end = fin
				}
			}
		} else if at := start.Add(plan.due[i] + s.Latency); s.OK && at.After(end) {
			end = at
		}
		if isInf(lat) {
			res.failures++
		}
		res.answers = append(res.answers, lat)
		res.byTier[mr.rq.Tier] = append(res.byTier[mr.rq.Tier], lat)
	}
	res.wall = end.Sub(start)
	res.late = lateMS(shots)
	res.distinct = len(distinct)
	for _, v := range views {
		res.views = append(res.views, v)
	}
	bad, failed := checkServe(res, plan, status, jobs, views, exp)
	res.wrong = bad + failed
	res.failures += failed

	// Ladder of fast-only stages.
	for _, d := range probe.durations()[primed:] {
		res.simHost += d
	}
	res.maxRPS, res.ladder = runLadder(f, plan.fast, stage, stages)
	res.capacity, res.perCPU = runCapacity(f, plan.fast, capacityTime)
	return res, nil
}

// checkServe applies the output checks. It returns the responses
// outside 2xx and 429, which already count as failed requests, and the
// other failed checks.
func checkServe(res *serveResult, plan *servePlan, status []int, jobs []string, views map[string]serve.JobView, exp expectedDigests) (badStatus, failed int) {
	for _, st := range status {
		if st/100 != 2 && st != http.StatusTooManyRequests {
			badStatus++
		}
	}
	res.checks["bad_status"] = badStatus
	started := res.fleet.counter("runner.runs_started")
	res.checks["runs_started"] = started
	res.checks["distinct_specs"] = res.distinct
	if int(started) != res.distinct {
		failed++
	}
	mismatch := 0
	for i, id := range jobs {
		mr := plan.sched[i]
		if id == "" || mr.rq.Tier != serve.TierExact {
			continue
		}
		d, err := resultDigest(views[id])
		if err != nil || d != exp.ServeMixed[mr.key] {
			mismatch++
		}
	}
	res.checks["digest_mismatches"] = mismatch
	return badStatus, failed + mismatch
}

// resultDigest digests an exact job's RunResult.
func resultDigest(v serve.JobView) (string, error) {
	raw, err := json.Marshal(v.Result)
	if err != nil {
		return "", err
	}
	var rr serve.RunResult
	if err := json.Unmarshal(raw, &rr); err != nil {
		return "", err
	}
	if rr.Fingerprint == "" {
		return "", fmt.Errorf("job %s carries no exact result", v.ID)
	}
	return digestJSON(rr)
}

// fetchViews reads every distinct job from the node that minted it.
func fetchViews(f *fleet, ids []string) (map[string]serve.JobView, error) {
	out := map[string]serve.JobView{}
	for _, id := range ids {
		if id == "" {
			continue
		}
		if _, ok := out[id]; ok {
			continue
		}
		node, _, ok := strings.Cut(id, "-job-")
		url, known := f.byName[node]
		if !ok || !known {
			return nil, fmt.Errorf("job id %q names no node", id)
		}
		resp, err := f.client.Get(url + "/v1/jobs/" + id)
		if err != nil {
			return nil, err
		}
		var v serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", id, err)
		}
		out[id] = v
	}
	return out, nil
}

// runLadder offers fast-only load at rising rates, one stage each,
// doubling until a stage misses the limit and then bisecting between
// the last sustained and the first missed rate. A stage is sustained
// when every request succeeds and its tail latency, from due time so
// a backlog counts, stays under fastLimit. It returns the achieved
// rate of the highest sustained stage.
func runLadder(f *fleet, fast []serve.RunRequest, stage time.Duration, stages int) (float64, []map[string]any) {
	var log []map[string]any
	best, lo, hi := 0.0, 0.0, 0.0
	rate := 400.0
	for k := 0; k < stages; k++ {
		if hi > 0 {
			rate = (lo + hi) / 2
		}
		n := int(rate * stage.Seconds())
		due := make([]time.Duration, n)
		for i := range due {
			due[i] = time.Duration(float64(i) / rate * float64(time.Second))
		}
		start := time.Now()
		shots := replay(start, due, runtime.NumCPU(), func(i int) (time.Time, bool) {
			st, _, end, err := post(f.client, f.proxySrv.URL, fast[i%len(fast)])
			return end, err == nil && st == http.StatusOK
		})
		lat := make([]float64, n)
		var last time.Duration
		for i, s := range shots {
			lat[i] = s.latencyMS()
			if s.OK && due[i]+s.Latency > last {
				last = due[i] + s.Latency
			}
		}
		d := summarize(lat)
		achieved := float64(n) / last.Seconds()
		ok := d.Tail <= float64(fastLimit)/1e6
		log = append(log, map[string]any{"rate": rate, "achieved": achieved, "tail_ms": finite(d.Tail), "tail_pct": d.TailPct, "ok": ok})
		if ok {
			best, lo = achieved, rate
			if hi == 0 {
				rate *= 2
			}
		} else {
			hi = rate
		}
	}
	return best, log
}

// runCapacity keeps nproc closed-loop clients sending fast-tier
// requests for d. It returns the answers per wall second, the mean of
// the middle half of its capacityWindow slices leaving out the first
// (ramp-up) and the unfinished last one, and the answers per CPU
// second the whole process (fleet and load generator) spent.
func runCapacity(f *fleet, fast []serve.RunRequest, d time.Duration) (float64, float64) {
	windows := make([]float64, int(d/capacityWindow)+1)
	var mu sync.Mutex
	start, cpu0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Since(start) < d; i += runtime.NumCPU() {
				st, _, end, err := post(f.client, f.proxySrv.URL, fast[i%len(fast)])
				if w := int(end.Sub(start) / capacityWindow); err == nil && st == http.StatusOK && w < len(windows) {
					mu.Lock()
					windows[w]++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	perCPU := sum(windows) / (cpuTime() - cpu0).Seconds()
	mid := windows[1 : len(windows)-1]
	sort.Float64s(mid)
	q := len(mid) / 4
	return sum(mid[q:len(mid)-q]) / float64(len(mid)-2*q) / capacityWindow.Seconds(), perCPU
}

func runServeMixed(cfg config) (*outcome, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	base, err := servePass(cfg, nil, newSimProbe(nil, cfg.busy), exp)
	if err != nil {
		return nil, err
	}
	oc := &outcome{info: map[string]any{}}
	record := func(r *serveResult) {
		oc.attempted += r.attempts
		oc.failed += r.failures
		oc.wrong += r.wrong
	}
	record(base)
	all, exact := summarize(base.answers), summarize(base.byTier[serve.TierExact])
	oc.e2e = map[string]float64{
		"setup_s":           base.setup.Seconds(),
		"wall_s":            base.wall.Seconds(),
		"peak_rss_mb":       peakRSSMB(),
		"answers_per_cpu_s": base.perCPU,
	}
	fastD, autoD, lateD := summarize(base.byTier[serve.TierFast]), summarize(base.byTier[serve.TierAuto]), summarize(base.late)
	oc.info["answers"], oc.info["exact"] = all, exact
	oc.info["fast"], oc.info["auto"], oc.info["late"] = fastD, autoD, lateD
	oc.info["ladder"] = base.ladder
	oc.info["capacity_rps"] = base.capacity
	oc.info["checks"] = base.checks
	if !cfg.trace {
		return oc, nil
	}

	rec := newRecorder()
	probe := newSimProbe(rec, cfg.busy)
	tr, err := servePass(cfg, rec, probe, exp)
	if err != nil {
		return nil, err
	}
	record(tr)
	spans := rec.snapshot()
	self := selfTimes(spans)
	names := byName(spans)
	usP50 := func(name string, self map[uint64]time.Duration) float64 {
		var xs []float64
		for _, s := range names[name] {
			d := s.dur()
			if self != nil {
				d = self[s.ID]
			}
			xs = append(xs, float64(d)/1e3)
		}
		return median(xs)
	}
	var queue, exec []float64
	var busy time.Duration
	for _, v := range tr.views {
		queue = append(queue, float64(v.QueueWaitMicros)/1e3)
		st, err1 := time.Parse(time.RFC3339Nano, v.Started)
		fin, err2 := time.Parse(time.RFC3339Nano, v.Finished)
		if err1 == nil && err2 == nil {
			exec = append(exec, float64(fin.Sub(st))/1e6)
			busy += fin.Sub(st)
		}
	}
	for name, ss := range names {
		if strings.HasPrefix(name, "node.") {
			for _, s := range ss {
				busy += s.dur()
			}
		}
	}
	es := probe.engine()
	f := tr.fleet
	workers := float64(fleetSize * runtime.GOMAXPROCS(0))
	oc.layers = map[string]float64{
		"experiments.pool_util":     float64(es.HostNs) / (workers * float64(tr.wall)),
		"cache.misses":              f.counter("cache.misses"),
		"cache.mem_hits":            f.counter("cache.mem_hits"),
		"cache.disk_hits":           f.counter("cache.disk_hits"),
		"cluster.peer_fill_hits":    f.counter("cluster.peer_fill_hits"),
		"serve.fast_handler_us_p50": usP50("node.fast", nil),
		"serve.submit_us_p50":       usP50("node.submit", nil),
		"serve.queue_wait_ms_tail":  summarize(queue).Tail,
		"serve.exec_ms_p50":         median(exec),
		"serve.coalesced":           f.counter("serve.coalesced"),
		"serve.rejected":            f.counter("serve.jobs_rejected"),
		"serve.batches":             f.counter("serve.batches"),
		"serve.sim_share":           ratio(float64(tr.simHost), float64(busy)),
		"proxy.self_us_p50":         usP50("proxy.run", self),
		"proxy.retries":             float64(f.proxyReg.Counter("proxy.retries").Load()),
		"proxy.hedges":              float64(f.proxyReg.Counter("proxy.hedges").Load()),
		"proxy.shed":                float64(f.proxyReg.Counter("proxy.shed").Load()),
		"cluster.forward_us_p50":    usP50("cluster.forward", nil),
		"cluster.peer_fill_ms_p50":  usP50("cluster.peer_fill", nil) / 1e3,
		"loadgen.late_tail_ms":      lateD.Tail,
		"loadgen.fast_p50_ms":       fastD.P50,
		"loadgen.fast_tail_ms":      fastD.Tail,
		"loadgen.auto_p50_ms":       autoD.P50,
		"loadgen.exact_p50_ms":      exact.P50,
		"loadgen.exact_tail_ms":     exact.Tail,
		"loadgen.fast_max_rps":      base.maxRPS,
		"trace.overhead_frac":       (summarize(tr.answers).P50 - all.P50) / all.P50,
	}
	addEngineLayers(oc.layers, es)
	if err := driveLayers(cfg, oc, probe, "read", f.urls); err != nil {
		return nil, err
	}
	oc.info["spans"] = dumpSpans(cfg, rec)
	oc.info["traced_checks"] = tr.checks
	oc.info["trace_lost_phase"] = es.LostPhase
	return oc, nil
}

// serveSpecDigests runs every simulated spec of serve-mixed.yaml on one
// standalone node and digests each exact result.
func serveSpecDigests() (map[string]string, error) {
	sp, err := spec.Parse(serveMixedYAML)
	if err != nil {
		return nil, err
	}
	s, err := serve.NewServer(serve.Config{})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(s.Handler())
	defer func() {
		srv.Close()
		s.Drain(context.Background())
	}()
	client := srv.Client()
	ids := map[string]string{}
	for _, c := range sp.Clients {
		for _, e := range c.Workloads {
			if e.Tier == serve.TierFast {
				continue
			}
			r := spec.Request{Pair: e.Pair, Bench: e.Bench, F: e.F, Scale: sp.ScaleOrDefault(), Tier: serve.TierExact}
			st, body, _, err := post(client, srv.URL, runRequest(r))
			if err != nil || st != http.StatusAccepted {
				return nil, fmt.Errorf("%s: status %d %s %v", r.Key(), st, body, err)
			}
			var acc struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &acc); err != nil {
				return nil, err
			}
			ids[r.Key()] = acc.ID
		}
	}
	s.WaitIdle()
	out := map[string]string{}
	for _, key := range sortedKeys(ids) {
		resp, err := client.Get(srv.URL + "/v1/jobs/" + ids[key])
		if err != nil {
			return nil, err
		}
		var v serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if out[key], err = resultDigest(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceNode wraps a node handler: one span per request, named for the
// work it does and linked to the cluster transport span that sent it.
func traceNode(rec *recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "node.other"
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/run":
			name = "node.submit"
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var rq struct {
				Tier string `json:"tier"`
			}
			if json.Unmarshal(body, &rq) == nil && rq.Tier == serve.TierFast {
				name = "node.fast"
			}
		case strings.HasPrefix(r.URL.Path, "/v1/cache/"):
			name = "node.cache"
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			name = "node.job"
		}
		parent, _ := strconv.ParseUint(r.Header.Get(benchSpanHeader), 10, 64)
		sp := rec.begin(name, parent)
		h.ServeHTTP(w, r)
		rec.finish(sp)
	})
}

// traceProxy wraps the proxy handler: one span per request, carried in
// the request context so the cluster transport can parent to it.
func traceProxy(rec *recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "proxy.other"
		if r.Method == http.MethodPost && r.URL.Path == "/v1/run" {
			name = "proxy.run"
		}
		sp := rec.begin(name, 0)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp.ID)))
		rec.finish(sp)
	})
}

// spanTransport records one span per outbound cluster request, until
// its response headers arrive, and tags the request with the span id.
type spanTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func traceTransport(rec *recorder, base http.RoundTripper) http.RoundTripper {
	if rec == nil {
		return base
	}
	return &spanTransport{rec: rec, base: base}
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "cluster.other"
	switch {
	case req.Method == http.MethodPost:
		name = "cluster.forward"
	case strings.HasPrefix(req.URL.Path, "/v1/cache/"):
		name = "cluster.peer_fill"
	}
	sp := t.rec.begin(name, spanFrom(req.Context()))
	out := req.Clone(req.Context())
	out.Header.Set(benchSpanHeader, strconv.FormatUint(sp.ID, 10))
	resp, err := t.base.RoundTrip(out)
	t.rec.finish(sp)
	return resp, err
}
