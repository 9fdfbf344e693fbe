package pipeline

// Idle-cycle fast-forward support (DESIGN.md §9).
//
// Cycle() spends one host iteration per simulated cycle even while the
// machine is provably stalled — e.g. the 300-cycle Miss_lat wait with
// the ROB head blocked, the fetch queue full and every reservation
// station waiting on the missing load. IdleScan computes the machine's
// next-event horizon: the earliest future cycle at which ANY stage
// could change state. When that horizon is beyond now+1, every Cycle()
// call in between is a strict no-op apart from (a) the per-cycle
// metric integrals and (b) re-emitting the same head-of-ROB pending
// report; AdvanceIdle applies (a) in bulk and IdleReport describes (b)
// so the SOE controller can replicate its per-cycle reaction exactly.
// Results are bit-identical to cycle-by-cycle execution (verified by
// the equivalence matrix in internal/sim).

// IdleReport describes the head-of-ROB pending report that retire()
// would emit on every cycle of an idle window: the next-to-retire
// micro-op is flagged with an unresolved miss. The report repeats with
// identical contents on each cycle t with From <= t < Until; outside
// that range (e.g. while an injected event stall gates retirement) no
// report is emitted.
type IdleReport struct {
	Miss      bool   // HeadMissPending (L2/walk miss)
	L1        bool   // HeadL1Pending (L1 miss that hit in L2)
	Seq       uint64 // architectural seq of the pending micro-op
	ResolveAt uint64 // cycle its miss resolves
	From      uint64 // first cycle the report is emitted
	Until     uint64 // first cycle it is no longer emitted (exclusive)
}

// IdleScan reports whether the pipeline is idle at cycle now: no stage
// can make progress at any cycle t with now <= t < horizon, so every
// Cycle(t) in that window would only bump the per-cycle metric
// integrals (see AdvanceIdle) and re-emit the report. idle=false means
// some stage can act at now itself (or nothing about the next event is
// known cheaply) and the caller must execute a real cycle.
//
// The horizon is the earliest of:
//   - head-of-ROB retirement or injected-event firing:
//     max(head doneAt, event-stall expiry);
//   - the earliest possible reservation-station issue: operand
//     producers complete on fixed doneAt schedules and ports free on
//     fixed busy-until schedules (entries whose producers have not
//     issued cannot overtake the bound — see issueHorizon);
//   - rename of the fetch-queue head once its group is decoded
//     (readyAt), unless blocked on a full backend (which only a
//     retire/issue event, already in the horizon, can clear);
//   - fetch resuming at fetchStall expiry, unless blocked on a
//     mispredicted branch (cleared by its issue) or a full fetch
//     queue (cleared by rename).
//
// Store dispatch performs a cache access every cycle the buffer is
// non-empty, so a non-empty store buffer is never idle. Cycles in an
// idle window touch no cache, TLB, MSHR, bus or predictor state.
func (p *Pipeline) IdleScan(now uint64) (horizon uint64, report IdleReport, idle bool) {
	if p.sbHead != len(p.sbAddr) {
		return 0, report, false // store dispatch progresses every cycle
	}
	clip := func(t uint64) {
		if horizon == 0 || t < horizon {
			horizon = t
		}
	}

	// Retirement / injected-event firing.
	if p.headID < p.nextID {
		s := p.headID & p.robMask
		if p.robFlags[s]&rfDone != 0 {
			doneAt := p.robDoneAt[s]
			t := doneAt
			if p.eventStall > t {
				t = p.eventStall
			}
			if t <= now {
				return 0, report, false // head retires (or fires an event) now
			}
			clip(t)
			if p.robFlags[s]&(rfMiss|rfL1) != 0 {
				report = IdleReport{
					Miss:      p.robFlags[s]&rfMiss != 0,
					L1:        p.robFlags[s]&rfL1 != 0,
					Seq:       p.robUop[s].Seq,
					ResolveAt: doneAt,
					From:      now,
					Until:     doneAt,
				}
				if p.eventStall > report.From {
					report.From = p.eventStall
				}
			}
		}
		// Head not executed yet: it reaches retirement only after an
		// issue event, which the issue horizon below already bounds.
	}

	// Issue. The cached wake bound (maintained by issue() and rename)
	// is authoritative when set: no waiting entry can issue before it.
	// An unset or stale cache (0, or <= now) just means "not provably
	// idle": the caller executes a real cycle, whose issue() scan
	// installs a fresh bound if the RS turns out to be all-waiting —
	// so a genuine stall costs at most one extra executed cycle before
	// skipping engages, and IdleScan itself never walks the RS.
	if p.rsCount > 0 {
		t := p.issueWakeAt
		if t <= now {
			return 0, report, false // an entry may be ready now
		}
		clip(t)
	}

	// Rename.
	if p.fqCount > 0 {
		h := p.fqHead
		if !p.renameBlocked(p.fqUop[h].Kind) {
			if p.fqReadyAt[h] <= now {
				return 0, report, false // head renames now
			}
			clip(p.fqReadyAt[h])
		}
		// Blocked heads accrue RenameStalls ticks (AdvanceIdle) and
		// unblock only via retire/issue events already in the horizon.
	}

	// Fetch. Every cycle fetch runs it accesses the icache/iTLB, so a
	// fetchable front end is never idle.
	if p.stream != nil && !p.brBlocked && p.fqCount < len(p.fqUop) {
		if p.fetchStall <= now {
			return 0, report, false
		}
		clip(p.fetchStall)
	}

	if horizon <= now+1 {
		return 0, report, false // nothing worth skipping (or no known event)
	}
	if report.Until > horizon {
		report.Until = horizon
	}
	return horizon, report, true
}

// AdvanceIdle bulk-applies the per-cycle metric updates for an idle
// window [now, now+n) certified by IdleScan: the cycle count, the
// ROB/RS occupancy integrals (occupancy is constant while idle), and
// the RenameStalls ticks a blocked, decoded fetch-queue head accrues.
// Callers must only pass windows IdleScan approved; the pipeline's
// next Cycle must then be at now+n.
func (p *Pipeline) AdvanceIdle(now, n uint64) {
	p.Metrics.Cycles += n
	p.Metrics.ROBOccupancy += n * uint64(p.ROBOccupancy())
	p.Metrics.RSOccupancy += n * uint64(p.rsCount)
	if p.fqCount > 0 {
		h := p.fqHead
		if p.renameBlocked(p.fqUop[h].Kind) {
			from := now
			if p.fqReadyAt[h] > from {
				from = p.fqReadyAt[h]
			}
			if end := now + n; from < end {
				p.Metrics.RenameStalls += end - from
			}
		}
	}
}
