package core

import (
	"math"

	"clustersmt/internal/isa"
	"clustersmt/internal/parallel"
	"clustersmt/internal/stats"
)

// This file implements the event-driven quiescence fast-forward. When a
// step makes no progress anywhere — nothing commits, issues, resumes or
// fetches on any cluster — the machine is frozen except for the passage
// of time: every state transition left is pinned to a known future
// cycle (an issued instruction completing, a dispatched instruction
// clearing the front-end delay, a functional unit freeing). Run can
// therefore jump straight to the earliest such cycle, provided the
// skipped cycles are accounted exactly as cycle-by-cycle stepping would
// have: same slot votes per cluster per cycle (they are provably
// constant while quiescent), same per-cycle counter mutations (commit
// round-robin, lock-conflict polls, fetch-stall counters, running-
// thread accumulation).
//
// The contract is bit-identity, not approximation: the differential
// tests in fastforward_test.go run both modes over every preset and
// assert reflect.DeepEqual on the full Result.

// noEvent means a cluster is quiescent with no self-scheduled event —
// it can only be woken by another cluster (e.g. a barrier release).
const noEvent = int64(math.MaxInt64)

// fetchStall classifies what a quiescent cluster's front end does every
// skipped cycle, so fastForward can replay its counters in bulk.
type fetchStall uint8

const (
	stallNone   fetchStall = iota // no fetchable thread at all
	stallWindow                   // pick bounces off a full window/queue
	stallRename                   // every fetchable thread lacks a rename reg
)

// ffStalledCluster records one cluster whose fetch stage needs per-cycle
// stall replay across a skip.
type ffStalledCluster struct {
	cl   *cluster
	kind fetchStall
}

// clusterQuiescent performs a non-mutating replay of what step() would
// do on cl at cycle now. It returns quiet=false if any stage would make
// progress or touch per-thread state the bulk path cannot replay. When
// quiet, it returns the cluster's earliest event cycle, fills votes
// with the hazard tally every skipped cycle would record, and registers
// replay work (lock spinners' failed polls, fetch-stall counters) on s.
//
// The stages are checked cheapest-first — per-thread scans before the
// O(window) issue scan — so a busy machine pays little for a failed
// quiescence probe.
func (s *Simulator) clusterQuiescent(cl *cluster, now int64, votes *stats.Votes) (quiet bool, next int64) {
	next = noEvent
	event := func(at int64) {
		if at < next {
			next = at
		}
	}

	// Commit stage: any thread with a completed instruction at its
	// in-order commit point retires it.
	for _, t := range cl.threads {
		if t.frontEvent <= now {
			return false, 0
		}
	}

	// Fetch stage: blocked threads may resume; runnable threads fetch.
	winFull := len(cl.window)-cl.zombies >= cl.cfg.WindowEntries || cl.iqCount >= cl.cfg.WindowEntries
	stall := stallNone
	for _, t := range cl.threads {
		switch t.block {
		case blockBranch:
			// Resolution is the branch's completion; the branch entry is
			// in flight, so the window scan below collects its event.
			if cl.resolved(t.pendingBranch, now) {
				return false, 0
			}
		case blockLock:
			// Dry-run the unblock poll: TryLock would succeed (and
			// mutate) iff the lock is free. A held lock cannot be
			// released while the whole machine is quiescent — only an
			// Unlock fetched on some cluster releases it.
			if t.lockGranted || t.sync.LockOwner(t.fn.Peek().Imm) == parallel.NoOwner {
				return false, 0
			}
			s.ffSpinners = append(s.ffSpinners, t)
		case blockBarrier:
			// Same reasoning: no thread can Arrive while quiescent.
			if t.sync.Released(t.fn.Peek().Imm, t.barTarget) {
				return false, 0
			}
		case blockMigrate:
			// Post-migration refill stall: lifts at a known cycle.
			if now >= t.migrateReady {
				return false, 0
			}
			event(t.migrateReady)
		case blockNone:
			if t.migrateTo != nil {
				// Draining for a migration: fetch skips it; its in-flight
				// completions are window events. Once drained the move
				// itself (between cycles) is progress.
				if t.inWindow == 0 {
					return false, 0
				}
				continue
			}
			if t.fn.Halted {
				continue // draining or done; never fetches again
			}
			if winFull {
				// The fetch attempt hits the capacity check before
				// anything thread-specific and charges only uniform
				// per-cycle stall counters, replayed in bulk.
				stall = stallWindow
				continue
			}
			// With window room the pick reaches the thread's next
			// instruction. Sync ops mutate or transition; an
			// instruction that clears the rename check would dispatch.
			// Only an every-fetchable-thread rename stall is frozen.
			in := t.fn.Peek()
			switch in.Op {
			case isa.OpLock, isa.OpUnlock, isa.OpBarrier:
				return false, 0
			}
			inf := in.Info()
			needInt := inf.WritesRD && in.RD != isa.RegZero
			needFP := inf.WritesFD
			if (needInt && cl.renameIntFree == 0) || (needFP && cl.renameFPFree == 0) {
				stall = stallRename
				continue
			}
			return false, 0
		}
	}
	switch stall {
	case stallWindow:
		s.ffStalled = append(s.ffStalled, ffStalledCluster{cl, stallWindow})
	case stallRename:
		// The one picked thread votes Other each cycle (§4.1 rename
		// stalls), exactly as fetchFrom would.
		votes[stats.Other]++
		s.ffStalled = append(s.ffStalled, ffStalledCluster{cl, stallRename})
	}

	// Issue stage: replicate the issue path's vote logic without
	// issuing. Nothing may be issuable — an issuable entry is progress,
	// and for loads even the attempt mutates memory-system counters.
	if s.EventIssue {
		if !quiescentIssueEvent(cl, now, votes, event) {
			return false, 0
		}
	} else if !quiescentIssueScan(cl, now, votes, event) {
		return false, 0
	}

	cl.threadVotes(votes)
	return true, next
}

// quiescentIssueScan dry-runs the reference window scan (issue): per
// dispatched entry, the vote it would record this cycle, plus the
// future cycles that could change the verdict.
func quiescentIssueScan(cl *cluster, now int64, votes *stats.Votes, event func(int64)) bool {
	for _, h := range cl.window {
		e := cl.at(h)
		if e.state != stateDispatched {
			// Issued and not yet done: completion is this entry's event.
			// Done but stuck behind program order: no event of its own.
			if e.state == stateIssued && e.completeAt > now {
				event(e.completeAt)
			}
			continue
		}
		if now < e.eligibleAt {
			// Still in decode/rename: silent (no vote) until eligible.
			event(e.eligibleAt)
			continue
		}
		ready, memWait := cl.sourcesReady(e, now)
		if !ready {
			if memWait {
				votes[stats.Memory]++
			} else {
				votes[stats.Data]++
			}
			// The blocking producer is in this window; its completion
			// (or its own issue chain) is already an event above.
			continue
		}
		class := e.fuCl
		if cl.freeUnit(class, now) < 0 {
			votes[stats.Structural]++
			event(cl.nextUnitFree(class)) // all busy, so the min is > now
			continue
		}
		if e.isLoad {
			if st := cl.forwardingStore(e); st != nil && !st.done(now) {
				// Store-to-load dependence through memory (tryIssue votes
				// Data here); the store's completion is an event above.
				votes[stats.Data]++
				continue
			}
		}
		// Ready with a free unit: it would issue this cycle (or, for a
		// load, at least hit the memory system and bump its retry
		// accounting). Either way the cluster is not quiescent.
		return false
	}
	return true
}

// quiescentIssueEvent dry-runs the wakeup issue stage (issueEvent).
// The event drain is idempotent at a fixed cycle, so running it here
// leaves a subsequent step (on probe failure) unperturbed. After the
// drain, the ready list and waiting tallies are exactly what the scan
// would re-derive: ready entries are checked individually (their FU /
// pending-store verdicts can change without a wheel event), waiting
// entries vote in bulk, and the pending deque's head plus the wheel's
// earliest wakeup bound every front-end transition, producer
// completion and in-flight completion — so no wakeup fires strictly
// inside a skip interval, which is what keeps the per-cycle votes
// constant while quiescent.
func quiescentIssueEvent(cl *cluster, now int64, votes *stats.Votes, event func(int64)) bool {
	cl.drainEvents(now)
	for _, h := range cl.ready {
		e := cl.at(h)
		class := e.fuCl
		if cl.freeUnit(class, now) < 0 {
			votes[stats.Structural]++
			event(cl.nextUnitFree(class)) // all busy, so the min is > now
			continue
		}
		if e.isLoad {
			if st := cl.forwardingStore(e); st != nil && !st.done(now) {
				// The store's completion is a wheel event (wake pushes a
				// self event at every issue).
				votes[stats.Data]++
				continue
			}
		}
		return false
	}
	votes[stats.Memory] += float64(cl.waitMemN)
	votes[stats.Data] += float64(cl.waitDataN)
	if cl.pendingHead < len(cl.pending) {
		event(cl.at(cl.pending[cl.pendingHead]).eligibleAt)
	}
	event(cl.wheel.min())
	return true
}

// fastForward attempts a quiescence skip at the current cycle. It
// returns true if it advanced s.cycle — either to the machine's next
// event (with all skipped cycles accounted) or, when no event exists or
// it lies beyond MaxCycles (deadlock), straight to MaxCycles so Run's
// safety net fires without grinding through billions of idle steps (the
// error path discards all accounting).
func (s *Simulator) fastForward() bool {
	now := s.cycle
	if len(s.ffVotes) < len(s.clusters) {
		s.ffVotes = make([]stats.Votes, len(s.clusters))
	}
	votes := s.ffVotes[:len(s.clusters)]
	s.ffSpinners = s.ffSpinners[:0]
	s.ffStalled = s.ffStalled[:0]

	next := noEvent
	for i, cl := range s.clusters {
		votes[i].Reset()
		quiet, at := s.clusterQuiescent(cl, now, &votes[i])
		if !quiet {
			return false
		}
		if at < next {
			next = at
		}
	}

	// An allocation epoch boundary is an event too: the policy must
	// observe the machine at exactly the cycle it would under plain
	// stepping, so skips clamp to it (alloc.nextAt is always > now here —
	// the run loop fires the epoch before probing quiescence).
	if s.alloc != nil && s.alloc.nextAt < next {
		next = s.alloc.nextAt
	}

	if next >= s.MaxCycles {
		s.cycle = s.MaxCycles
		return true
	}
	if next <= now {
		// Defensive: every collected event is strictly in the future,
		// so this cannot happen; refuse to skip rather than loop.
		return false
	}

	n := next - now

	// Hoist the per-cycle slot rows out of the replay: the votes are
	// constant across the skip, so each cluster's divides happen once.
	if len(s.ffRows) < len(s.clusters) {
		s.ffRows = make([][stats.NumCategories]float64, len(s.clusters))
	}
	rows := s.ffRows[:len(s.clusters)]
	for i, cl := range s.clusters {
		rows[i] = stats.IdleRow(cl.cfg.IssueWidth, &votes[i])
	}

	if s.obs == nil {
		s.replaySkip(n, rows, votes)
	} else {
		// Metrics frames must land exactly on their boundaries, so the
		// skip is replayed in segments split at each due sample. Every
		// segment performs the identical per-cycle accounting in the
		// identical order a single full-span replay would (the per-cycle
		// loops are merely partitioned into contiguous runs), so the
		// results stay bit-identical — only the sampler observes the
		// boundary states in between.
		for n > 0 {
			seg := n
			if due := s.obs.nextAt - s.cycle; due > 0 && due < seg {
				seg = due
			}
			s.replaySkip(seg, rows, votes)
			n -= seg
			if s.cycle >= s.obs.nextAt {
				s.sample()
			}
		}
	}
	return true
}

// replaySkip charges n skipped quiescent cycles of accounting exactly
// as n step() calls would have, using the precomputed per-cluster slot
// rows and votes, and advances the clock. The machine-wide tally
// receives per-cycle interleaved cluster contributions (float addition
// is not associative, so the interleaving order matters for
// bit-identity); each cluster's own tally is a contiguous stream and
// takes the bulk path.
func (s *Simulator) replaySkip(n int64, rows [][stats.NumCategories]float64, votes []stats.Votes) {
	for c := int64(0); c < n; c++ {
		for i := range rows {
			s.slots.AddRow(&rows[i])
		}
	}
	for i, cl := range s.clusters {
		cl.slots.RecordIdleCycles(cl.cfg.IssueWidth, n, &votes[i])
		cl.commitRR += int(n) // commit() advances it every cycle
	}
	s.slots.AdvanceCycles(n)
	// running is integer-valued and the accumulator stays far below
	// 2^53, so the bulk add equals n repeated additions exactly (and a
	// segmented replay's partial adds sum to the same value).
	s.runningAccum += float64(n) * float64(s.running)
	for _, t := range s.ffSpinners {
		t.sync.LockConflicts += uint64(n) // one failed poll per cycle
	}
	for _, fc := range s.ffStalled {
		// Each skipped cycle the cluster picked one fetchable thread and
		// bounced off the stall: one fetch group, one stall counter, one
		// round-robin rotation per cycle. n is bounded by the longest
		// in-flight latency (a stalled cluster always has in-flight
		// instructions), so the pick replay loop stays short.
		fc.cl.fetchGroups += uint64(n)
		switch fc.kind {
		case stallWindow:
			fc.cl.windowFullStalls += uint64(n)
		case stallRename:
			fc.cl.renameStalls += uint64(n)
		}
		for i := int64(0); i < n; i++ {
			fc.cl.pickFetchThread()
		}
	}
	s.ffCycles += n
	s.cycle += n
}
