// Package workload generates the synthetic programs that drive the
// simulator.
//
// The paper evaluates on SPEC CPU2000 LITs (checkpointed traces of
// real applications), which are proprietary and not distributable.
// Following DESIGN.md §2, this package substitutes parameterised
// synthetic workloads: each Profile describes a program's instruction
// mix, instruction-level parallelism, memory-reference locality and
// branch behaviour, and the generator expands it into a deterministic
// micro-op stream. Profiles named after SPEC benchmarks (gcc, eon,
// swim, ...) are calibrated so that the *characteristics that matter
// to the paper* — instructions-per-miss (IPM), cycles-per-miss (CPM)
// and no-miss IPC — span the same range as the paper's benchmark
// pairs.
//
// Generation is a pure function of (profile, sequence number): the
// micro-op at position i can be regenerated at any time in O(1). The
// pipeline relies on this to rewind the front end after a thread
// switch squashes in-flight instructions.
package workload

import (
	"fmt"
	"math"
	"sort"

	"soemt/internal/arena"
	"soemt/internal/isa"
	"soemt/internal/rng"
)

// Phase modifies generation parameters over a window of the
// instruction stream, modelling program phase behaviour (the paper's
// Figure 5 discussion). Phases repeat cyclically.
type Phase struct {
	Len       uint64  // phase length in instructions
	ColdScale float64 // multiplier on PCold (1 = unchanged)
	IlpScale  float64 // multiplier on ChainFrac (1 = unchanged)
}

// Profile parameterises a synthetic program.
type Profile struct {
	Name string
	Seed uint64

	// Instruction mix: fractions of the stream (the remainder is
	// single-cycle integer ALU work).
	FracLoad   float64
	FracStore  float64
	FracBranch float64
	FracMul    float64
	FracDiv    float64
	FracFAdd   float64
	FracFMul   float64
	FracFDiv   float64
	FracPause  float64 // x86 PAUSE-style switch hints (§6 extension)

	// Instruction-level parallelism. ChainFrac is the probability that
	// an op's first source is the immediately preceding op (a serial
	// dependence chain); other sources are drawn uniformly from the
	// previous DepWindow ops.
	ChainFrac float64
	DepWindow int

	// Memory locality: accesses go to a hot region (L1-resident), a
	// warm region (L2-resident) or a cold region (larger than L2, so
	// references miss). PHot = 1 - PWarm - PCold.
	HotBytes  uint64
	WarmBytes uint64
	ColdBytes uint64
	PWarm     float64
	PCold     float64
	// StrideFrac of cold accesses walk sequentially (consecutive
	// references share lines and coalesce in the MSHRs — the paper's
	// overlapped-miss case); the rest are scattered.
	StrideFrac float64

	// Branch behaviour. The code is a loop of LoopLen instructions;
	// branch sites are fixed PCs inside it. NoiseFrac of each site's
	// outcomes are random (unpredictable); the rest follow the site's
	// bias/pattern.
	LoopLen   uint64
	TakenBias float64
	NoiseFrac float64

	// Optional phase schedule (cyclic).
	Phases []Phase
}

// finiteUnit reports whether v is a finite value in [0, 1].
func finiteUnit(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 && v <= 1
}

// Validate reports configuration errors in the profile.
func (p *Profile) Validate() error {
	// Every instruction-mix fraction must individually be a valid
	// probability. Checking only the sum is not enough: a negative
	// fraction can cancel an oversized one (e.g. FracLoad=1.2,
	// FracStore=-0.3 sums to 0.9) and the generator's cumulative cdf
	// thresholds would silently exceed 1 while the implicit ALU
	// remainder goes negative.
	fracs := []struct {
		name string
		v    float64
	}{
		{"FracLoad", p.FracLoad}, {"FracStore", p.FracStore},
		{"FracBranch", p.FracBranch}, {"FracMul", p.FracMul},
		{"FracDiv", p.FracDiv}, {"FracFAdd", p.FracFAdd},
		{"FracFMul", p.FracFMul}, {"FracFDiv", p.FracFDiv},
		{"FracPause", p.FracPause},
	}
	sum := 0.0
	for _, f := range fracs {
		if !finiteUnit(f.v) {
			return fmt.Errorf("workload %q: instruction-mix fraction %s = %v must be in [0, 1]",
				p.Name, f.name, f.v)
		}
		sum += f.v
	}
	if sum > 1+1e-12 {
		return fmt.Errorf("workload %q: instruction mix sums to %.3f > 1 (the implicit ALU remainder would be negative)",
			p.Name, sum)
	}
	probs := []struct {
		name string
		v    float64
	}{
		{"PWarm", p.PWarm}, {"PCold", p.PCold},
		{"ChainFrac", p.ChainFrac}, {"StrideFrac", p.StrideFrac},
		{"TakenBias", p.TakenBias}, {"NoiseFrac", p.NoiseFrac},
	}
	for _, f := range probs {
		if !finiteUnit(f.v) {
			return fmt.Errorf("workload %q: %s = %v must be in [0, 1]", p.Name, f.name, f.v)
		}
	}
	if p.PWarm+p.PCold > 1 {
		return fmt.Errorf("workload %q: PWarm+PCold = %.3f > 1", p.Name, p.PWarm+p.PCold)
	}
	if p.DepWindow < 1 {
		return fmt.Errorf("workload %q: DepWindow must be >= 1", p.Name)
	}
	if p.LoopLen < 4 {
		return fmt.Errorf("workload %q: LoopLen must be >= 4", p.Name)
	}
	if p.HotBytes == 0 || p.WarmBytes == 0 || p.ColdBytes == 0 {
		return fmt.Errorf("workload %q: memory regions must be non-empty", p.Name)
	}
	// Phase scale factors are applied mid-stream by phaseAt; the scaled
	// probabilities must stay in range for every phase, checked here
	// (phases are static) rather than clamped silently at generation
	// time.
	for i, ph := range p.Phases {
		if ph.Len == 0 {
			return fmt.Errorf("workload %q: phase %d has zero length", p.Name, i)
		}
		if math.IsNaN(ph.ColdScale) || math.IsInf(ph.ColdScale, 0) || ph.ColdScale < 0 {
			return fmt.Errorf("workload %q: phase %d ColdScale = %v must be finite and >= 0",
				p.Name, i, ph.ColdScale)
		}
		if math.IsNaN(ph.IlpScale) || math.IsInf(ph.IlpScale, 0) || ph.IlpScale < 0 {
			return fmt.Errorf("workload %q: phase %d IlpScale = %v must be finite and >= 0",
				p.Name, i, ph.IlpScale)
		}
		if pc := p.PCold * ph.ColdScale; pc > 1 {
			return fmt.Errorf("workload %q: phase %d scales PCold to %.3f > 1 (PCold=%v × ColdScale=%v)",
				p.Name, i, pc, p.PCold, ph.ColdScale)
		} else if pc+p.PWarm > 1 {
			return fmt.Errorf("workload %q: phase %d scaled PCold %.3f + PWarm %.3f > 1",
				p.Name, i, pc, p.PWarm)
		}
		if cf := p.ChainFrac * ph.IlpScale; cf > 1 {
			return fmt.Errorf("workload %q: phase %d scales ChainFrac to %.3f > 1 (ChainFrac=%v × IlpScale=%v)",
				p.Name, i, cf, p.ChainFrac, ph.IlpScale)
		}
	}
	return nil
}

// Generator expands a Profile into micro-ops. Safe for concurrent use
// (it is immutable after construction).
type Generator struct {
	prof Profile

	// Derived sub-seeds, one independent counter-mode stream per
	// decision dimension.
	kindSeed   uint64
	chainSeed  uint64
	depSeed    uint64
	regionSeed uint64
	addrSeed   uint64
	strideSeed uint64
	noiseSeed  uint64
	dirSeed    uint64
	siteSeed   uint64 // Sub(dirSeed, "site"), hoisted out of branchTaken

	// Cumulative mix thresholds, ordered as kindByCount, on the 53-bit
	// integer scale of the kind draw: draw < kindCut[i] exactly when
	// the draw's float64 in [0, 1) is below the cumulative fraction.
	kindCut [9]uint64

	phaseTotal uint64 // sum of phase lengths (0 = no phases)

	// Address-space bases; threads get distinct bases via NewOffset.
	hotBase  uint64
	warmBase uint64
	coldBase uint64
	codeBase uint64
}

// kindByCount orders the kinds as the instruction-mix fractions, with
// the ALU remainder last (see kindAt).
var kindByCount = [10]isa.Kind{
	isa.Load, isa.Store, isa.Branch, isa.Mul, isa.Div, isa.FAdd, isa.FMul, isa.FDiv, isa.Pause, isa.ALU,
}

// New builds a Generator for prof with address space offset 0.
// It panics if the profile is invalid (configuration error).
func New(prof Profile) *Generator { return NewOffset(prof, 0) }

// NewOffset builds a Generator whose data and code regions are placed
// in a distinct address-space slot, so that multiple threads running
// the same profile do not share data (the paper's same-benchmark pairs
// are separate processes).
func NewOffset(prof Profile, slot int) *Generator {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		prof:       prof,
		kindSeed:   rng.Sub(prof.Seed, "kind"),
		chainSeed:  rng.Sub(prof.Seed, "chain"),
		depSeed:    rng.Sub(prof.Seed, "dep"),
		regionSeed: rng.Sub(prof.Seed, "region"),
		addrSeed:   rng.Sub(prof.Seed, "addr"),
		strideSeed: rng.Sub(prof.Seed, "stride"),
		noiseSeed:  rng.Sub(prof.Seed, "noise"),
		dirSeed:    rng.Sub(prof.Seed, "dir"),
		siteSeed:   rng.Sub(rng.Sub(prof.Seed, "dir"), "site"),
	}
	fr := [9]float64{
		prof.FracLoad, prof.FracStore, prof.FracBranch, prof.FracMul,
		prof.FracDiv, prof.FracFAdd, prof.FracFMul, prof.FracFDiv,
		prof.FracPause,
	}
	acc := 0.0
	for i, f := range fr {
		acc += f
		// u = k/2^53 for the integer draw k, so u < acc exactly when
		// k < acc·2^53 (a power-of-two scaling, exact), that is when
		// k < ceil(acc·2^53).
		g.kindCut[i] = uint64(math.Ceil(acc * (1 << 53)))
	}
	for _, ph := range prof.Phases {
		g.phaseTotal += ph.Len
	}
	// 1 TiB per thread slot keeps regions disjoint without overlapping
	// the page-table tag bit (1<<46). Per-slot skews shift each
	// thread's code and data to different cache-set / predictor-index
	// alignments: the slot bit itself (1<<40) is masked out of every
	// set/table index, and without the skew co-scheduled threads would
	// alias onto exactly the same predictor entries and cache sets —
	// something unaligned real programs do not do.
	base := uint64(slot) << 40
	skew := uint64(slot) * 0x9E40 // 64-byte aligned, odd line count
	g.codeBase = base + 0x0000_1000 + uint64(slot)*0x5E6F4
	g.hotBase = base + 0x0100_0000 + skew
	g.warmBase = base + 0x1000_0000 + 3*skew
	g.coldBase = base + 0x40_0000_0000 + 7*skew
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// Regions describes the generator's address-space layout, used by the
// simulator's functional cache warmup to bring the resident working
// set (hot + warm + code and their page-table entries) to steady state
// without executing tens of millions of instructions.
type Regions struct {
	HotBase, HotBytes   uint64
	WarmBase, WarmBytes uint64
	ColdBase, ColdBytes uint64
	CodeBase, CodeBytes uint64
}

// Regions returns the generator's address-space layout.
func (g *Generator) Regions() Regions {
	return Regions{
		HotBase: g.hotBase, HotBytes: g.prof.HotBytes,
		WarmBase: g.warmBase, WarmBytes: g.prof.WarmBytes,
		ColdBase: g.coldBase, ColdBytes: g.prof.ColdBytes,
		CodeBase: g.codeBase, CodeBytes: g.prof.LoopLen * 4,
	}
}

// phaseAt returns the effective PCold and ChainFrac at seq, and how
// many positions from seq on (seq included) share them: the distance
// to the next phase boundary, or ^0 without phases.
func (g *Generator) phaseAt(seq uint64) (pCold, chainFrac float64, left uint64) {
	pCold, chainFrac = g.prof.PCold, g.prof.ChainFrac
	if g.phaseTotal == 0 {
		return pCold, chainFrac, ^uint64(0)
	}
	pos := seq % g.phaseTotal
	for _, ph := range g.prof.Phases {
		if pos < ph.Len {
			// Validate guarantees the scaled values stay in [0, 1], so no
			// clamping happens here: an out-of-range phase is a
			// configuration error, not something to hide mid-stream.
			return pCold * ph.ColdScale, chainFrac * ph.IlpScale, ph.Len - pos
		}
		pos -= ph.Len
	}
	return pCold, chainFrac, ^uint64(0)
}

// kindAt picks the micro-op kind from the draw counter c of its seq:
// the first kind whose cumulative threshold lies above the draw, else
// ALU. The thresholds are non-decreasing, so that kind's index is the
// count of thresholds at or below the draw. Counting with a sign bit
// (cut-1-k wraps past 2^63 exactly when k >= cut, as both are below
// 2^54) keeps the random draw from steering a branch.
func (g *Generator) kindAt(c uint64) isa.Kind {
	return g.kindFor(rng.Draw(g.kindSeed, c) >> 11)
}

// kindFor is kindAt for the 53-bit integer draw k.
func (g *Generator) kindFor(k uint64) isa.Kind {
	n := uint64(0)
	for _, cut := range g.kindCut {
		n += (cut - 1 - k) >> 63
	}
	return kindByCount[n]
}

// destReg assigns destination registers in a rotating pattern so that
// "the op at distance d back" is addressable as a logical register for
// any d < NumRegs.
func destReg(seq uint64) isa.Reg { return isa.Reg(seq % isa.NumRegs) }

// srcFor picks a source register representing a dependence on an op
// roughly `dist` back in the stream.
func srcFor(seq uint64, dist int) isa.Reg {
	if uint64(dist) > seq {
		dist = int(seq)
	}
	if dist == 0 {
		return isa.RegNone
	}
	return destReg(seq - uint64(dist))
}

// coldEpochLen is the instruction count after which the scattered
// cold-access window slides; coldWindow bounds the window size. Real
// memory-bound programs touch large footprints with page-level
// temporal locality; drawing scattered addresses uniformly over the
// whole cold region would instead thrash the TLB page tables
// themselves (tens of thousands of live pages), which no real program
// does.
const (
	coldEpochLen = 200_000
	coldWindow   = 8 << 20
)

// addrFor computes the data address for a load/store at seq, whose
// draw counter is c.
func (g *Generator) addrFor(seq, c uint64, pCold float64) uint64 {
	u := rng.DrawFloat64(g.regionSeed, c)
	switch {
	case u < pCold:
		if rng.DrawFloat64(g.strideSeed, c) < g.prof.StrideFrac {
			// Sequential walk through the cold region: 8 bytes per
			// access so 8 consecutive cold refs share a 64B line.
			return g.coldBase + (seq*8)%g.prof.ColdBytes
		}
		// Scattered within a sliding window of the cold region: the
		// long-run footprint spans the whole region, the instantaneous
		// page working set stays bounded.
		window := g.prof.ColdBytes
		if window > coldWindow {
			window = coldWindow
		}
		epoch := seq / coldEpochLen
		windowBase := (rng.Uint64At(g.addrSeed, ^epoch) % (g.prof.ColdBytes / 64)) * 64
		off := (rng.Draw(g.addrSeed, c) % (window / 64)) * 64
		return g.coldBase + (windowBase+off)%g.prof.ColdBytes
	case u < pCold+g.prof.PWarm:
		off := rng.Draw(g.addrSeed, c) % (g.prof.WarmBytes / 8)
		return g.warmBase + off*8
	default:
		off := rng.Draw(g.addrSeed, c) % (g.prof.HotBytes / 8)
		return g.hotBase + off*8
	}
}

// branchTaken decides the architectural outcome of the branch at loop
// slot `slot`, whose seq has draw counter c. Each site (loop slot) has
// a fixed bias direction; NoiseFrac of outcomes are random. The loop
// backedge (last slot) is always taken.
func (g *Generator) branchTaken(c, slot uint64) bool {
	if slot == g.prof.LoopLen-1 {
		return true
	}
	if rng.DrawFloat64(g.noiseSeed, c) < g.prof.NoiseFrac {
		return rng.Draw(g.dirSeed, c)&1 == 0
	}
	// Per-site deterministic bias direction.
	return rng.Float64At(g.siteSeed, slot) < g.prof.TakenBias
}

// At returns the micro-op at position seq. It is a pure function.
func (g *Generator) At(seq uint64) isa.Uop {
	pCold, chainFrac, _ := g.phaseAt(seq)
	var u isa.Uop
	g.gen(&u, seq, seq%g.prof.LoopLen, pCold, chainFrac)
	return u
}

// Fill writes the micro-ops at positions seq, seq+1, ... into dst:
// dst[i] == At(seq+i). It is At's block form: the phase lookup runs
// once per phase boundary instead of once per micro-op, and the loop
// slot advances incrementally instead of by division.
func (g *Generator) Fill(dst []isa.Uop, seq uint64) {
	slot := seq % g.prof.LoopLen
	pCold, chainFrac, left := g.phaseAt(seq)
	for i := range dst {
		if left == 0 {
			pCold, chainFrac, left = g.phaseAt(seq)
		}
		g.gen(&dst[i], seq, slot, pCold, chainFrac)
		seq++
		if slot++; slot == g.prof.LoopLen {
			slot = 0
		}
		left--
	}
}

// gen writes the micro-op at seq (loop slot slot = seq % LoopLen,
// phase parameters pCold and chainFrac) into u, overwriting every
// field. Every per-seq draw shares the one counter c.
func (g *Generator) gen(u *isa.Uop, seq, slot uint64, pCold, chainFrac float64) {
	c := rng.Counter(seq)
	kind := g.kindAt(c)
	*u = isa.Uop{Seq: seq, PC: g.codeBase + slot*4, Kind: kind}

	// The dependence-distance draws are positional (pure functions of
	// seq), so evaluating them lazily per kind changes no generated
	// value — it only skips hashes whose results the kind discards.
	switch kind {
	case isa.Load:
		u.Dst = destReg(seq)
		u.Src1 = srcFor(seq, g.dist1At(c, chainFrac)) // address base register
		u.Src2 = isa.RegNone
		u.Addr = g.addrFor(seq, c, pCold)
		u.Size = 8
	case isa.Store:
		u.Dst = isa.RegNone
		u.Src1 = srcFor(seq, g.dist1At(c, chainFrac)) // data
		u.Src2 = srcFor(seq, g.dist2At(seq))          // address
		u.Addr = g.addrFor(seq, c, pCold)
		u.Size = 8
	case isa.Pause:
		u.Dst = isa.RegNone
		u.Src1 = isa.RegNone
		u.Src2 = isa.RegNone
	case isa.Branch:
		u.Dst = isa.RegNone
		u.Src1 = srcFor(seq, g.dist1At(c, chainFrac)) // condition
		u.Src2 = isa.RegNone
		u.Taken = g.branchTaken(c, slot)
		if u.Taken {
			// Taken branches jump within the loop; the backedge
			// returns to the top.
			next := slot + 1
			if next == g.prof.LoopLen {
				next = 0
			}
			u.Target = g.codeBase + next*4
		} else {
			u.Target = u.PC + 4
		}
	default:
		u.Dst = destReg(seq)
		u.Src1 = srcFor(seq, g.dist1At(c, chainFrac))
		u.Src2 = srcFor(seq, g.dist2At(seq))
	}
}

// dist1At draws the first-source dependence distance from the draw
// counter c of its seq.
func (g *Generator) dist1At(c uint64, chainFrac float64) int {
	if rng.DrawFloat64(g.chainSeed, c) < chainFrac {
		return 1
	}
	return 1 + int(rng.Draw(g.depSeed, c)%uint64(g.prof.DepWindow))
}

// dist2At draws the second-source dependence distance at seq.
func (g *Generator) dist2At(seq uint64) int {
	return 1 + rng.IntnAt(g.depSeed, ^seq, g.prof.DepWindow)
}

// Stream ring geometry: Next and Peek serve micro-ops from a per-stream
// ring of streamRing slots, refilled streamBlock micro-ops at a time by
// Generator.Fill. Blocks are aligned to streamBlock positions, so a
// block never wraps inside the ring.
const (
	streamBlock = 64
	streamRing  = 256
)

// Stream is a positioned cursor over a Generator, used by the pipeline
// front end. Seek supports post-squash rewind.
//
// The stream keeps the most recent streamRing generated micro-ops in a
// ring (slot seq % streamRing), filled in aligned blocks. Sequential
// reads cost one block fill per streamBlock micro-ops, a Peek-then-Next
// pair generates nothing twice, and the re-fetch after a thread switch
// squashes in-flight micro-ops and seeks back (at most a ROB plus a
// fetch queue behind the cursor) is served from the ring.
type Stream struct {
	gen  *Generator
	next uint64

	ring   []isa.Uop
	lo, hi uint64 // ring holds the micro-ops at positions [lo, hi)
}

// NewStream returns a Stream over g starting at position start.
func NewStream(g *Generator, start uint64) *Stream {
	return NewStreamIn(nil, g, start)
}

// NewStreamIn is NewStream with the ring carved from a (nil = plain
// heap allocation).
func NewStreamIn(a *arena.Arena, g *Generator, start uint64) *Stream {
	return &Stream{gen: g, next: start, ring: arena.Slice[isa.Uop](a, streamRing)}
}

// Next returns the next micro-op and advances the cursor.
func (s *Stream) Next() isa.Uop {
	u := s.at()
	s.next++
	return *u
}

// Peek returns the micro-op the next call to Next will produce,
// without advancing the cursor.
func (s *Stream) Peek() isa.Uop { return *s.at() }

// at returns the ring slot holding the micro-op at the cursor, filling
// the ring first when the cursor is outside it.
func (s *Stream) at() *isa.Uop {
	if s.next < s.lo || s.next >= s.hi {
		s.fill()
	}
	return &s.ring[s.next%streamRing]
}

// fill brings the cursor's block into the ring. Reading on from the
// ring's end appends the next block and retires the oldest one once the
// ring is full; any other position (a seek backward past the ring, or
// forward beyond its end) restarts the ring at the cursor, filled to
// the end of its block.
func (s *Stream) fill() {
	from := s.next
	if from != s.hi {
		s.lo = from
	}
	end := from - from%streamBlock + streamBlock
	s.gen.Fill(s.ring[from%streamRing:(end-1)%streamRing+1], from)
	s.hi = end
	if s.hi-s.lo > streamRing {
		s.lo = s.hi - streamRing
	}
}

// Pos returns the sequence number the next call to Next will produce.
func (s *Stream) Pos() uint64 { return s.next }

// Seek repositions the cursor.
func (s *Stream) Seek(seq uint64) { s.next = seq }

// Generator returns the underlying generator.
func (s *Stream) Generator() *Generator { return s.gen }

// Names returns the sorted list of built-in profile names.
func Names() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName returns the built-in profile with the given name.
func ByName(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}

// MustByName returns the built-in profile or panics — for use in
// experiment tables where a missing name is a programming error.
func MustByName(name string) Profile {
	p, ok := profiles[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown profile %q", name))
	}
	return p
}
