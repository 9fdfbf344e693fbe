package pipeline

import (
	"fmt"
	"math/bits"
	"testing"

	"soemt/internal/isa"
	"soemt/internal/workload"
)

// TestStoreBufferRing exercises the head-index ring that replaced the
// O(n) copy-per-dispatch drain: FIFO dispatch order, occupancy
// accounting, compaction invariants, and forwarding across a live
// [sbHead:] window.
func TestStoreBufferRing(t *testing.T) {
	p := testMachine()
	// Fill well past the compaction threshold through interleaved
	// append/dispatch so sbHead walks deep into the backing array.
	next := uint64(0x1000)
	var expect []uint64
	for round := 0; round < 300; round++ {
		p.sbAddr = append(p.sbAddr, next)
		p.sbTid = append(p.sbTid, 0)
		expect = append(expect, next)
		next += 64
		if round%2 == 1 {
			p.dispatchStores(uint64(round))
			expect = expect[1:]
		}
		if p.StoreBufLen() != len(expect) {
			t.Fatalf("round %d: StoreBufLen = %d, want %d", round, p.StoreBufLen(), len(expect))
		}
		if p.sbHead > len(p.sbAddr) {
			t.Fatalf("round %d: sbHead %d past buffer end %d", round, p.sbHead, len(p.sbAddr))
		}
		// The compaction policy bounds the dead prefix: it is reclaimed
		// once it reaches 64 entries AND half the backing array.
		if p.sbHead >= 64 && p.sbHead*2 >= len(p.sbAddr)+2 {
			t.Fatalf("round %d: dead prefix %d/%d survived compaction", round, p.sbHead, len(p.sbAddr))
		}
		// Live window must match FIFO expectation.
		for i, addr := range p.sbAddr[p.sbHead:] {
			if addr != expect[i] {
				t.Fatalf("round %d: live[%d] = %#x, want %#x", round, i, addr, expect[i])
			}
		}
		// Forwarding must see exactly the live entries.
		if len(expect) > 0 && !p.forwardable(expect[0]) {
			t.Fatalf("round %d: oldest live store not forwardable", round)
		}
		if round > 0 && p.sbHead > 0 && !p.forwardable(expect[len(expect)-1]) {
			t.Fatalf("round %d: newest live store not forwardable", round)
		}
	}
	// Drain fully: the backing array must be released.
	for p.StoreBufLen() > 0 {
		p.dispatchStores(1 << 20)
	}
	if len(p.sbAddr) != 0 || p.sbHead != 0 {
		t.Fatalf("drained buffer not reset: len=%d head=%d", len(p.sbAddr), p.sbHead)
	}
}

// plantROB installs a bare, unissued ALU micro-op at ROB id (test
// scaffolding for scheduler tests that bypass rename).
func (p *Pipeline) plantROB(id uint64, u isa.Uop) {
	s := id & p.robMask
	p.robUop[s] = u
	p.robDoneAt[s] = 0
	p.robFlags[s] = 0
}

// plantRS installs a ready (operand-free) RS entry for the micro-op at
// ROB id: reservation stations live in ROB slots, so the id alone
// places it.
func (p *Pipeline) plantRS(id uint64, kind isa.Kind) {
	s := id & p.robMask
	p.robUop[s].Kind = kind
	p.rsReady[s>>6] |= 1 << (s & 63)
	p.rsWaitCnt[s] = 0
	p.rsWakeAt[s] = 0
	p.rsCount++
}

// testMachineROB is testMachine with a ROB of the given size (its ring
// is the next power of two).
func testMachineROB(rob int) *Pipeline {
	p := testMachine()
	cfg := p.cfg
	cfg.ROBSize = rob
	q, err := New(cfg, p.hier, p.bu)
	if err != nil {
		panic(err)
	}
	return q
}

// TestIssueOldestFirst pins the scheduler's oldest-first selection: with
// more ready entries than free ports, the issued subset must be exactly
// the oldest ROB ids. The head cases place the ROB head near the end of
// the ring so that age order wraps past the last slot: slot order then
// disagrees with age order, and a plain low-to-high slot scan would pick
// the wrong pair.
func TestIssueOldestFirst(t *testing.T) {
	for _, tc := range []struct {
		name string
		rob  int
		head uint64
	}{
		{"head-at-start", 96, 0},
		{"head-near-ring-end", 96, 126},
		{"head-at-last-slot", 96, 127},
		{"multi-word-ring-wraps", 200, 255},
		{"sub-word-ring-wraps", 24, 31},
		{"sub-word-ring-head-mid", 24, 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testMachineROB(tc.rob)
			// Three ready ALU entries at the three oldest ids from the
			// head. ALU has two ports, so one issue() pass takes exactly
			// two, and they must be the two oldest.
			p.headID, p.nextID = tc.head, tc.head+3
			ids := []uint64{tc.head, tc.head + 1, tc.head + 2}
			for _, id := range ids {
				p.plantROB(id, isa.Uop{Seq: id, Kind: isa.ALU, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
				p.plantRS(id, isa.ALU)
			}
			p.issue(100)
			for i, id := range ids {
				issued := p.robFlags[id&p.robMask]&rfIssued != 0
				if want := i < 2; issued != want {
					t.Fatalf("id %d (slot %d): issued = %v, want %v", id, id&p.robMask, issued, want)
				}
			}
			if p.rsCount != 1 {
				t.Fatalf("rsCount = %d after issuing two of three", p.rsCount)
			}
		})
	}
}

// TestIssuePortBlockedYields pins the one-pass pick's skip rule: an
// older entry whose port group is busy yields to a younger one whose
// port is free, and the blocked entry stays ready.
func TestIssuePortBlockedYields(t *testing.T) {
	p := testMachineROB(24)
	p.headID, p.nextID = 30, 33 // wraps: slots 30, 31, 0
	kinds := []isa.Kind{isa.Div, isa.ALU, isa.Load}
	for i, k := range kinds {
		id := p.headID + uint64(i)
		p.plantROB(id, isa.Uop{Seq: id, Kind: k, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		p.plantRS(id, k)
	}
	for m := isa.PortMask[isa.Div]; m != 0; m &= m - 1 {
		p.portBusy[bits.TrailingZeros8(m)] = 1000
	}
	p.issue(100)
	for i, want := range []bool{false, true, true} {
		id := p.headID + uint64(i)
		if got := p.robFlags[id&p.robMask]&rfIssued != 0; got != want {
			t.Fatalf("id %d (%v): issued = %v, want %v", id, kinds[i], got, want)
		}
	}
	if s := p.headID & p.robMask; p.rsReady[s>>6]&(1<<(s&63)) == 0 {
		t.Fatal("port-blocked entry lost its ready bit")
	}
}

// TestIssueWakeCacheTransparent runs the same workloads on a normal
// pipeline and on one whose issue-wake cache is defeated before every
// cycle (forcing the pre-optimization always-scan behavior), asserting
// identical cycle-by-cycle state. This is the regression guard that the
// early-bail + wake-cache optimization never changes issue order or
// timing.
func TestIssueWakeCacheTransparent(t *testing.T) {
	for _, prof := range []workload.Profile{aluProfile(), missyProfile()} {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			a := testMachine()
			b := testMachine()
			ga := workload.New(prof)
			gb := workload.New(prof)
			a.SetStream(0, workload.NewStream(ga, 0), 0)
			b.SetStream(0, workload.NewStream(gb, 0), 0)
			for now := uint64(0); now < 60_000; now++ {
				ra := a.Cycle(now)
				b.issueWakeAt = 0 // defeat the cache: always scan
				rb := b.Cycle(now)
				if ra != rb {
					t.Fatalf("cycle %d: results diverge: %+v vs %+v", now, ra, rb)
				}
				sa, sb := stateKey(a), stateKey(b)
				if sa != sb {
					t.Fatalf("cycle %d: state diverges\ncached:      %s\nalways-scan: %s", now, sa, sb)
				}
			}
		})
	}
}

// stateKey captures occupancy, metrics and scheduler-visible state
// (excluding the wake memo itself).
func stateKey(p *Pipeline) string {
	return fmt.Sprintf("%s m=%+v ports=%v head=%d next=%d arch=%d",
		p.String(), p.Metrics, p.portBusy, p.headID, p.nextID, p.nextArchSeq)
}
