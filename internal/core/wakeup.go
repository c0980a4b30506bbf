package core

import (
	"sort"

	"clustersmt/internal/stats"
)

// This file implements the dependence-driven (wakeup) issue stage that
// replaces the per-cycle full-window scan. When an entry issues it
// pushes a wakeup onto each in-flight consumer — the inverse of the
// entry.producers links — scheduled at its completeAt; a per-cluster
// wakeup wheel (a min-heap of timed wakeups) re-evaluates woken entries
// and moves those whose last producer resolved into a seq-ordered ready
// list, so issueEvent pops oldest-first from ready entries only instead
// of re-polling all WindowEntries every cycle. Entries still inside the
// decode/rename delay sit in a plain FIFO deque (eligibleAt is
// monotone in fetch order, so the wheel is not needed to order them),
// and unready entries exist only as memory/data hazard tallies
// maintained incrementally.
//
// The contract is the same as fast-forward's (fastforward.go):
// bit-identity, not approximation. The hazard votes the scan produced
// for unready entries are reproduced exactly from the waiting tallies,
// the issue order (and hence FU assignment and memory-system call
// order) is the same seq order the window scan walks, and the
// differential tests in fastforward_test.go assert reflect.DeepEqual
// on the full Result across scan × wakeup × stepped × fast-forward.
//
// Events are at-least-once: an entry with two in-flight producers gets
// a wakeup from each, and the pending pop races producer completions.
// evaluate is therefore idempotent — guarded on state, eligibility and
// current queue membership — and stale events (for entries that issued
// or committed since being scheduled) fall through the state guard.
//
// Every structure here holds handles, not pointers, into the cluster's
// recycled entry pool (entry.go), and the generation rule makes reuse
// safe. A slot is freed only when the zombie sweep (commit, the first
// stage of a cycle) removes its committed entry, and is refilled only
// by fetch (the last stage), so every handle resolves to its own entry
// at least until the end of the cycle its entry is swept in — in
// particular, a completion event due that cycle still walks its
// consumer chain. After the slot is reused the handle is retired and
// reads as what its committed entry was: a producer is ready, a
// forwarding candidate is nil, a resolved branch is done, and a wheel
// event is dropped.

// entry.queued states: membership in the cluster's issue bookkeeping.
const (
	qNone    uint8 = iota // not yet visible to the issue stage
	qWaiting              // eligible but blocked on an unready producer
	qReady                // sources resolved; an issue candidate
)

// wheel is the wakeup wheel: pending wakeups in a hand-rolled min-heap
// keyed by cycle (no container/heap, so a push allocates nothing once
// the backing array has grown). Wakeups due the same cycle pop in no
// particular order, and need not: a drain's outcome is independent of
// it, because evaluate reads only producer state — which no evaluation
// changes — and files ready entries by seq.
type wheel []wakeup

// wakeup is one wheel event: re-evaluate (or, once done, walk the
// consumers of) the entry e at cycle.
type wakeup struct {
	cycle int64
	e     handle
}

// push schedules e for re-evaluation at the given cycle.
func (w *wheel) push(cycle int64, e handle) {
	h := append(*w, wakeup{cycle, e})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].cycle <= h[i].cycle {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*w = h
}

// min returns the earliest pending wakeup cycle, or noEvent when the
// wheel is empty (the fast-forward next-event bound).
func (w wheel) min() int64 {
	if len(w) == 0 {
		return noEvent
	}
	return w[0].cycle
}

// pop removes and returns the earliest wakeup.
func (w *wheel) pop() wakeup {
	h := *w
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r, small := 2*i+1, 2*i+2, i
		if l < n && h[l].cycle < h[small].cycle {
			small = l
		}
		if r < n && h[r].cycle < h[small].cycle {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*w = h
	return top
}

// drainEvents processes every pending entry past its front-end delay
// and every wakeup due by cycle now, re-evaluating each woken
// entry. Draining is idempotent at a fixed cycle — it is exactly what
// issueEvent does first — so the fast-forward quiescence probe may
// drain early without perturbing a subsequent step.
func (c *cluster) drainEvents(now int64) {
	for c.pendingHead < len(c.pending) && c.at(c.pending[c.pendingHead]).eligibleAt <= now {
		h := c.pending[c.pendingHead]
		c.pendingHead++
		c.evaluate(h, now)
	}
	if c.pendingHead > 0 && c.pendingHead*2 >= len(c.pending) {
		// Slide the live tail down so appends reuse the capacity.
		n := copy(c.pending, c.pending[c.pendingHead:])
		c.pending = c.pending[:n]
		c.pendingHead = 0
	}
	for len(c.wheel) > 0 && c.wheel[0].cycle <= now {
		xh := c.wheel.pop().e
		x := c.live(xh)
		if x == nil {
			continue // retired: a stale event
		}
		if x.state == stateDispatched {
			// A wakeup scheduled for x itself (dispatchEvent saw an
			// already-issued producer).
			c.evaluate(xh, now)
			continue
		}
		if !x.done(now) {
			// Stale wakeup for an entry that issued since it was
			// scheduled; its own completion event (wake) will walk
			// the consumers.
			continue
		}
		// x's completion: wake its consumer chain. Every consumer
		// is still dispatched here — it cannot have issued before
		// x was done, and this walk runs before any issue at the
		// first cycle that sees x done (fast-forward never skips
		// past wheel.min()) — so the producer links that select
		// the next-link slot are intact.
		cur := x.firstCons
		x.firstCons = handle{} // chains are walked exactly once
		for !cur.isNil() {
			ce := c.at(cur)
			next := ce.consNext[1]
			if ce.producers[0] == xh {
				next = ce.consNext[0]
			}
			c.evaluate(cur, now)
			cur = next
		}
	}
}

// evaluate reclassifies a dispatched entry at cycle now: into ready
// when every producer has resolved, otherwise into (or within) the
// waiting state with its memory-vs-data hazard class kept current —
// the same sourcesReady verdict the scan re-derives per cycle,
// computed only when an event can have changed it. Waiting entries
// exist only as the aggregate waitMemN/waitDataN tallies plus per-
// entry flags (no list: maintaining one costs a removal per transition,
// which re-spends much of the scan's cost); the rare
// per-entry walk waitingVotes needs is over the seq-ordered window.
// Producers never become un-done, so ready is terminal until issue.
func (c *cluster) evaluate(h handle, now int64) {
	e := c.at(h)
	if e.state != stateDispatched || now < e.eligibleAt || e.queued == qReady {
		return
	}
	ready, memWait := c.sourcesReady(e, now)
	if ready {
		if e.queued == qWaiting {
			if e.waitMem {
				c.waitMemN--
			} else {
				c.waitDataN--
			}
		}
		e.queued = qReady
		c.ready = insertBySeq(c.ready, h)
		return
	}
	if e.queued == qNone {
		e.queued = qWaiting
		e.waitMem = memWait
		if memWait {
			c.waitMemN++
		} else {
			c.waitDataN++
		}
		return
	}
	// Still waiting, but a completed load producer may have flipped the
	// hazard class from memory to data (or a remaining load the other
	// way); keep the incremental tallies exact.
	if e.waitMem != memWait {
		if memWait {
			c.waitDataN--
			c.waitMemN++
		} else {
			c.waitMemN--
			c.waitDataN++
		}
		e.waitMem = memWait
	}
}

// insertBySeq inserts h into the seq-sorted ready list. The ready set
// is small — entries leave it the cycle their FU is free — so a binary
// search over the handles' own seqs plus a short memmove beats a heap.
func insertBySeq(list []handle, h handle) []handle {
	i := sort.Search(len(list), func(j int) bool { return list[j].seq > h.seq })
	list = append(list, handle{})
	copy(list[i+1:], list[i:])
	list[i] = h
	return list
}

// dispatchEvent registers a freshly fetched entry with the wakeup
// machinery: it subscribes to each in-flight producer — dispatched
// producers link it onto their intrusive consumer list (walked when
// their completion event pops), already-issued ones get a wheel wakeup
// at their completion — and queues the entry on the pending deque,
// whose pop at eligibleAt is the first cycle the scan path would look
// at it.
func (c *cluster) dispatchEvent(e *entry) {
	h := e.ref()
	for k, ph := range e.producers {
		p := c.live(ph)
		if p == nil || (k == 1 && e.producers[0] == ph) {
			// Nil or retired (long done), or slot 1 duplicating slot 0
			// (both sources read the same in-flight result), which must
			// link only once.
			continue
		}
		if p.state == stateDispatched {
			e.consNext[k] = p.firstCons
			p.firstCons = h
		} else if p.completeAt > e.eligibleAt {
			c.wheel.push(p.completeAt, h)
		}
		// Producers already done by eligibleAt are covered by the
		// pending pop below.
	}
	c.pending = append(c.pending, h)
}

// wake fires when e issues: its completion becomes a wheel event — the
// consumer-chain walk, the fast-forward next-event bound, and the
// commit-progress signal even when nothing reads the result.
func (c *cluster) wake(e *entry) {
	c.wheel.push(e.completeAt, e.ref())
}

// issueEvent is the wakeup-path issue stage: drain due events, then
// pop oldest-first from the ready list only. Bit-identical to the
// reference scan (issue): ready entries are visited in the same seq
// order the window scan walks, failed attempts vote and retry through
// tryIssue exactly as the scan's would, and the scan's loop-top break
// — it stops at the first entry after the width-th issue — becomes a
// seq cut at the width-th issued entry's seq, applied to the remaining
// ready entries here and to the waiting tallies in waitingVotes.
func (c *cluster) issueEvent(s *Simulator, now int64, votes *stats.Votes) int {
	c.drainEvents(now)
	issued := 0
	broke := false
	var breakSeq uint64
	kept := c.ready[:0]
	for i, h := range c.ready {
		if issued >= c.cfg.IssueWidth {
			// The scan would not visit these: keep them, no votes.
			// Writes into kept trail i, so this forward copy is safe.
			kept = append(kept, c.ready[i:]...)
			break
		}
		if e := c.at(h); c.tryIssue(s, e, now, votes) {
			e.queued = qNone
			issued++
			if issued >= c.cfg.IssueWidth {
				broke = true
				breakSeq = h.seq
			}
		} else {
			kept = append(kept, h)
		}
	}
	c.ready = kept
	c.waitingVotes(votes, broke, breakSeq)
	return issued
}

// waitingVotes adds the hazard votes of the waiting entries the scan
// would have visited this cycle: all of them — straight from the
// incremental tallies, the common case — when the issue loop ran to
// exhaustion, else only those older than the width-th issued entry
// (seqs are unique, so the cut is exact). The cut walks the window,
// which is in seq order, so it stops at the break position — issues
// pop oldest-first, so the prefix before the width-th issued entry is
// short — and only on width-saturated cycles.
func (c *cluster) waitingVotes(votes *stats.Votes, broke bool, breakSeq uint64) {
	if !broke {
		votes[stats.Memory] += float64(c.waitMemN)
		votes[stats.Data] += float64(c.waitDataN)
		return
	}
	mem, data := 0, 0
	for _, h := range c.window {
		if h.seq >= breakSeq {
			break
		}
		if e := c.at(h); e.state == stateDispatched && e.queued == qWaiting {
			if e.waitMem {
				mem++
			} else {
				data++
			}
		}
	}
	votes[stats.Memory] += float64(mem)
	votes[stats.Data] += float64(data)
}
