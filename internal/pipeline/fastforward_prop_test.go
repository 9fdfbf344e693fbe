package pipeline

import (
	"testing"

	"soemt/internal/isa"
	"soemt/internal/mem"
	"soemt/internal/workload"
)

// lockstepState is the pipeline state two lockstep machines must agree
// on at every resume point: architectural position, queue occupancy
// and timing registers, metrics, and the memory-side event counters
// (an idle window must touch no cache or TLB).
type lockstepState struct {
	metrics                              Metrics
	hier                                 mem.HierarchyStats
	l1i, l1d, l2                         mem.CacheStats
	itlb, dtlb                           mem.TLBStats
	headID, nextID, nextArchSeq          uint64
	fetchStall, eventStall, issueWakeAt  uint64
	rsCount, lbCount, fqHead, fqCount    int
	sbHead, sbLen, eventIdx, wakeHeapLen int
	brBlocked                            bool
	portBusy                             [isa.NumPorts]uint64
}

func stateOf(p *Pipeline) lockstepState {
	h := p.hier
	return lockstepState{
		metrics: p.Metrics, hier: h.Stats,
		l1i: h.L1I.Stats, l1d: h.L1D.Stats, l2: h.L2.Stats,
		itlb: h.ITLB.Stats, dtlb: h.DTLB.Stats,
		headID: p.headID, nextID: p.nextID, nextArchSeq: p.nextArchSeq,
		fetchStall: p.fetchStall, eventStall: p.eventStall, issueWakeAt: p.issueWakeAt,
		rsCount: p.rsCount, lbCount: p.lbCount, fqHead: p.fqHead, fqCount: p.fqCount,
		sbHead: p.sbHead, sbLen: len(p.sbAddr), eventIdx: p.eventIdx, wakeHeapLen: len(p.wakeHeap),
		brBlocked: p.brBlocked,
		portBusy:  p.portBusy,
	}
}

// TestFastForwardIdleScanLockstep is the pipeline-level cross-check of
// the fast-forward engine. Two machines run the same stream and
// injected stalls: one jumps every window IdleScan certifies
// (AdvanceIdle), the other executes Cycle() at every cycle. Inside each
// jumped window the reference's per-cycle results must be exactly what
// the window's IdleReport promises — nothing retires, and the
// head-pending report appears on [From, Until) and nowhere else — and
// at every resume point both machines must be in the same state.
func TestFastForwardIdleScanLockstep(t *testing.T) {
	profiles := []workload.Profile{aluProfile(), missyProfile()}
	for _, prof := range profiles {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			ff, ref := testMachine(), testMachine()
			for _, p := range []*Pipeline{ff, ref} {
				p.SetStream(0, workload.NewStream(workload.New(prof), 0), 0)
				p.SetEvents([]InjectedStall{
					{AtInstr: 5_000, StallCycles: 2_000},
					{AtInstr: 20_000, StallCycles: 700},
				})
			}
			var idleSeen, busySeen, reportSeen int
			now := uint64(0)
			for now < 120_000 {
				horizon, rep, idle := ff.IdleScan(now)
				if !idle {
					busySeen++
					if got, want := ff.Cycle(now), ref.Cycle(now); got != want {
						t.Fatalf("cycle %d: results diverge\nfast-forward: %+v\nreference:    %+v", now, got, want)
					}
					now++
					continue
				}
				idleSeen++
				ff.AdvanceIdle(now, horizon-now)
				for start := now; now < horizon; now++ {
					var want CycleResult
					if rep.From <= now && now < rep.Until {
						reportSeen++
						want.HeadMissPending = rep.Miss
						want.HeadL1Pending = rep.L1 && !rep.Miss
						want.HeadMissSeq = rep.Seq
						want.HeadResolveAt = rep.ResolveAt
					}
					if got := ref.Cycle(now); got != want {
						t.Fatalf("cycle %d of idle window [%d, %d): reference did %+v, report %+v promised %+v",
							now, start, horizon, got, rep, want)
					}
				}
				if got, want := stateOf(ff), stateOf(ref); got != want {
					t.Fatalf("resume at cycle %d: states diverge\nfast-forward: %+v\nreference:    %+v", now, got, want)
				}
			}
			// Non-vacuity: the drive must exercise both verdicts, and the
			// miss-heavy drive must cross windows carrying a report.
			if idleSeen == 0 {
				t.Fatalf("no idle window certified in %d steps; lockstep check is vacuous", busySeen)
			}
			if busySeen == 0 {
				t.Fatal("no busy cycle executed; lockstep check is vacuous")
			}
			if prof.Name == "missy" && reportSeen == 0 {
				t.Fatal("no idle window carried a head-pending report; report check is vacuous")
			}
		})
	}
}
