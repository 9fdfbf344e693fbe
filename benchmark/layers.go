package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"soemt/internal/branch"
	"soemt/internal/cluster"
	"soemt/internal/experiments"
	"soemt/internal/isa"
	"soemt/internal/mem"
	"soemt/internal/pipeline"
	"soemt/internal/rng"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// Layer drives run in traced runs only. Each calls one layer's public
// functions on inputs taken from the workload itself: the specs and
// results its simulations produced, and the instruction streams of its
// profiles from seeded start positions.

// standInNodes is the ring for workloads that start no fleet: three
// members, as serve-mixed runs.
var standInNodes = []string{"http://n1", "http://n2", "http://n3"}

// sink keeps timed loops from being optimized away.
var sink uint64

// driveLayers adds every layer-drive metric to oc.layers. cacheMode is
// how the workload uses the result cache: "write" (cold misses that
// persist), "read" (hits), or "" when it bypasses the cache. nodes
// names the ring the owner lookups run on.
func driveLayers(cfg config, oc *outcome, probe *simProbe, cacheMode string, nodes []string) error {
	probe.mu.Lock()
	specs := append([]sim.Spec(nil), probe.specs...)
	results := append([]*sim.Result(nil), probe.results...)
	probe.mu.Unlock()
	if len(specs) == 0 {
		return fmt.Errorf("layer drives: the traced pass ran no simulation")
	}
	l := oc.layers

	keys := make([]string, len(specs))
	fps := make([]float64, 0, len(specs))
	for i, s := range specs {
		start := time.Now()
		k, err := experiments.Fingerprint(s)
		fps = append(fps, float64(time.Since(start))/1e3)
		if err != nil {
			return err
		}
		keys[i] = k
	}
	l["experiments.fingerprint_us"] = median(fps)

	decodes := make([]float64, 0, len(specs))
	for i, res := range results {
		data, err := experiments.EncodeEntry(keys[i], res)
		if err != nil {
			return err
		}
		start := time.Now()
		_, err = experiments.DecodeVerifiedEntry(data, keys[i])
		decodes = append(decodes, float64(time.Since(start))/1e3)
		if err != nil {
			return err
		}
	}
	l["experiments.entry_decode_us"] = median(decodes)

	if cacheMode != "" {
		self, err := driveCache(cfg, specs, results, cacheMode)
		if err != nil {
			return err
		}
		l["cache.self_ms_p50"] = self
	}

	l["cluster.ring_owner_ns"] = driveRing(nodes, keys)

	allocs, err := driveSimAllocs(specs)
	if err != nil {
		return err
	}
	l["sim.allocs_per_run"] = allocs

	var profiles []workload.Profile
	seen := map[string]bool{}
	for _, s := range specs {
		for _, t := range s.Threads {
			if !seen[t.Profile.Name] {
				seen[t.Profile.Name] = true
				profiles = append(profiles, t.Profile)
			}
		}
	}
	nsUop, branches := driveGenerator(cfg.seed, profiles)
	l["workload.ns_per_uop"] = nsUop
	l["branch.ns_per_predict"] = driveBranch(branches)
	shares, err := driveMem(cfg.seed, l)
	if err != nil {
		return err
	}
	oc.info["mem_mix_shares"] = shares
	return nil
}

// driveCache times Cache.RunSpecContext over the workload's specs with
// a run function that returns the already known result, so the "sim"
// child span is nearly empty and the parent's self time is the cache
// layer's own work: fingerprint, lookup and, on a miss, the disk
// write. "read" first persists every entry and then times a second,
// cold-memory cache over the same directory: disk hits.
func driveCache(cfg config, specs []sim.Spec, results []*sim.Result, mode string) (float64, error) {
	dir, err := scratchDir(cfg, "cache-drive")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	rec := newRecorder()
	byKey := map[string]*sim.Result{}
	for i, s := range specs {
		k, err := experiments.Fingerprint(s)
		if err != nil {
			return 0, err
		}
		byKey[k] = results[i]
	}
	stub := func(ctx context.Context, s sim.Spec) (*sim.Result, error) {
		sp := rec.begin("sim", spanFrom(ctx))
		defer rec.finish(sp)
		k, err := experiments.Fingerprint(s)
		if err != nil {
			return nil, err
		}
		return byKey[k], nil
	}
	pass := func(c *experiments.Cache, name string) error {
		c.SetRunFunc(stub)
		for _, s := range specs {
			sp := rec.begin(name, 0)
			_, err := c.RunSpecContext(withSpan(context.Background(), sp.ID), s)
			rec.finish(sp)
			if err != nil {
				return err
			}
		}
		return nil
	}
	c, err := experiments.NewCache(dir)
	if err != nil {
		return 0, err
	}
	if err := pass(c, "cache.write"); err != nil {
		return 0, err
	}
	timed := "cache.write"
	if mode == "read" {
		c, err := experiments.NewCache(dir)
		if err != nil {
			return 0, err
		}
		if err := pass(c, "cache.read"); err != nil {
			return 0, err
		}
		timed = "cache.read"
	}
	spans := rec.snapshot()
	self := selfTimes(spans)
	var ms []float64
	for _, s := range byName(spans)[timed] {
		ms = append(ms, float64(self[s.ID])/1e6)
	}
	return median(ms), nil
}

// driveSimAllocs re-runs up to three of the workload's specs serially,
// with nothing else running, and returns heap objects allocated per
// simulation.
func driveSimAllocs(specs []sim.Spec) (float64, error) {
	n := min(3, len(specs))
	before := heapObjects()
	for _, s := range specs[:n] {
		if _, err := sim.RunContext(context.Background(), s); err != nil {
			return 0, err
		}
	}
	return float64(heapObjects()-before) / float64(n), nil
}

// driveRing times consistent-hash owner lookups for the workload's
// keys.
func driveRing(nodes, keys []string) float64 {
	ring := cluster.NewRing(nodes, 64)
	const rounds = 2000
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			sink += uint64(len(ring.Owner(k)))
		}
	}
	return float64(time.Since(start)) / float64(rounds*len(keys))
}

type branchRec struct {
	pc, target uint64
	taken      bool
}

// generatorUops is how many micro-ops each profile's stream yields to
// the drives.
const generatorUops = 200_000

// driveGenerator times Generator.At over each profile's stream from a
// seeded start and returns the branches it met, for driveBranch.
func driveGenerator(seed uint64, profiles []workload.Profile) (float64, []branchRec) {
	var total time.Duration
	var n int
	var branches []branchRec
	for i, p := range profiles {
		g := workload.NewOffset(p, i%4)
		from := rng.Uint64At(rng.Sub(seed, "drive|"+p.Name), 0) % 1_000_000
		start := time.Now()
		for s := from; s < from+generatorUops; s++ {
			u := g.At(s)
			sink += u.Addr ^ u.PC
		}
		total += time.Since(start)
		n += generatorUops
		for s := from; s < from+generatorUops; s++ {
			if u := g.At(s); u.Kind == isa.Branch {
				branches = append(branches, branchRec{u.PC, u.Target, u.Taken})
			}
		}
	}
	return float64(total) / float64(n), branches
}

// driveBranch times one prediction plus its update per branch on the
// machine's default branch unit.
func driveBranch(branches []branchRec) float64 {
	if len(branches) == 0 {
		return 0
	}
	c := pipeline.DefaultConfig()
	u := branch.NewUnit(c.BranchEntries, c.BTBEntries, c.RASDepth, c.HistoryBits)
	start := time.Now()
	for _, b := range branches {
		pred := u.PredictDirection(b.pc)
		u.Resolve(b.pc, pred, b.taken, b.target)
	}
	return float64(time.Since(start)) / float64(len(branches))
}

// memAccesses is the number of timed AccessData calls per mix.
const memAccesses = 200_000

// driveMem times Hierarchy.AccessData on three address mixes built
// from the eon, gcc and mcf streams: a set that fits L1 (hits), a set
// four times L1 that fits L2 (L1 misses, L2 hits) and lines never seen
// before (memory fills). It returns the share of accesses in each mix
// that landed where the mix aims, so a drifted mix is visible.
func driveMem(seed uint64, l map[string]float64) (map[string]float64, error) {
	cfg := mem.DefaultConfig()
	l1Lines := cfg.L1D.SizeKB * 1024 / cfg.L1D.LineSize
	lines := func(name string, n int) []uint64 {
		g := workload.NewOffset(workload.MustByName(name), 0)
		from := rng.Uint64At(rng.Sub(seed, "mem|"+name), 0) % 1_000_000
		seen := map[uint64]bool{}
		var out []uint64
		for s := from; len(out) < n; s++ {
			u := g.At(s)
			if !u.Kind.IsMem() {
				continue
			}
			line := u.Addr &^ uint64(cfg.L1D.LineSize-1)
			if !seen[line] {
				seen[line] = true
				out = append(out, line)
			}
		}
		return out
	}
	type mix struct {
		metric string
		addrs  []uint64
		fresh  bool // offset every round so each access is a new line
		aim    func(mem.AccessResult) bool
	}
	mixes := []mix{
		{"mem.ns_per_access.l1", lines("eon", l1Lines/4), false, func(r mem.AccessResult) bool { return !r.L1Miss }},
		{"mem.ns_per_access.l2", lines("gcc", 4*l1Lines), false, func(r mem.AccessResult) bool { return r.L1Miss && !r.L2Miss }},
		{"mem.ns_per_access.miss", lines("mcf", 4*l1Lines), true, func(r mem.AccessResult) bool { return r.L2Miss }},
	}
	shares := map[string]float64{}
	for _, m := range mixes {
		h, err := mem.NewHierarchy(cfg)
		if err != nil {
			return nil, err
		}
		// Memory fills take MemLatency cycles; stepping time past one
		// per access keeps the MSHRs from filling up.
		step := uint64(1)
		if m.fresh {
			step = uint64(cfg.MemLatency) + 1
		}
		now := uint64(0)
		addr := func(i int) uint64 {
			a := m.addrs[i%len(m.addrs)]
			if m.fresh {
				a += uint64(i/len(m.addrs)+1) << 40
			}
			return a
		}
		for i := range m.addrs { // warm
			h.AccessData(now, addr(i), false)
			now += step
		}
		hit := 0
		start := time.Now()
		for i := 0; i < memAccesses; i++ {
			if m.aim(h.AccessData(now, addr(len(m.addrs)+i), false)) {
				hit++
			}
			now += step
		}
		l[m.metric] = float64(time.Since(start)) / memAccesses
		shares[m.metric] = float64(hit) / memAccesses
	}
	return shares, nil
}
