package core

import (
	"clustersmt/internal/coherence"
	"clustersmt/internal/interp"
	"clustersmt/internal/isa"
)

// entryState tracks a window entry through its life.
type entryState uint8

const (
	stateDispatched entryState = iota // in the window, waiting to issue
	stateIssued                       // executing on a functional unit
	stateCompleted                    // result available, awaiting commit
)

// entry is one instruction in a cluster's unified instruction window /
// reorder buffer (the two structures are the same size in every Table 2
// configuration, so they are modeled as one). Entries live in their
// cluster's pool (cluster.pool) and hold no pointers: every link to
// another entry is a generation-checked handle, so the pool is a flat
// slice the garbage collector never scans.
type entry struct {
	d      interp.DynInstr
	thread int32  // Simulator.threads index (== threadCtx.id)
	slot   int32  // this entry's own pool slot
	seq    uint64 // cluster-wide age for oldest-first issue; the slot's generation

	state      entryState
	fetchedAt  int64
	eligibleAt int64 // fetchedAt + FrontEndDelay (decode/rename depth)
	completeAt int64 // valid once issued

	// Producers of this entry's register sources that were in flight at
	// dispatch. nil handles were architecturally ready; retired ones
	// (committed, slot since reused) read as ready too.
	producers [2]handle

	// Issue-stage facts cached off isa.Info at fetch, so the (possibly
	// many) issue retries never re-index the opcode table: the
	// functional-unit class (ClassNone pseudo-ops borrow an integer
	// slot), the raw Table 1 latency, and the unit occupancy once issued
	// (1 when pipelined, the full latency otherwise).
	fuCl isa.Class
	lat  int64
	occ  int64

	isLoad, isStore bool
	isBranch        bool
	mispredicted    bool
	usesIntRename   bool
	usesFPRename    bool
	memClass        coherence.AccessClass // loads only, set at issue
	forwarded       bool                  // load satisfied by an older in-window store
	committed       bool                  // retired; awaiting window compaction

	// Wakeup-path bookkeeping (wakeup.go; all zero on the scan path).
	// queued tracks the entry's issue-stage classification; waitMem
	// caches the memory-vs-data hazard class while queued == qWaiting.
	// firstCons heads this entry's intrusive consumer list — dependents
	// registered while it was an unissued producer, woken at its
	// completion; consNext[k] continues the list this entry joined
	// through its producer slot k (allocation-free: an entry sits on at
	// most two consumer lists, one per source).
	queued    uint8
	waitMem   bool
	firstCons handle
	consNext  [2]handle

	// fwdStore is the youngest older same-thread, same-address store at
	// fetch time (the store-forwarding map's answer, bound at dispatch).
	// Loads only; nil when no such store was in flight.
	fwdStore handle
}

// handle names a window entry: its slot in the cluster's pool plus the
// entry's seq. Seqs are unique per cluster and a recycled slot is
// always refilled with a younger entry, so the seq doubles as the
// slot's generation: a handle whose slot no longer carries its seq is
// retired — its entry committed, was swept out of the window, and the
// slot went to a newer instruction. The zero handle is nil (slot 0 is
// a sentinel no handle matches), so nil and retired read the same way
// through cluster.live.
type handle struct {
	slot int32
	seq  uint64
}

// ref returns the handle naming e.
func (e *entry) ref() handle { return handle{e.slot, e.seq} }

// isNil reports whether h is the nil handle.
func (h handle) isNil() bool { return h.slot == 0 }

// addProducer wires p as a register producer of e, returning the
// updated producer count. nil producers (architecturally ready sources)
// are skipped; no instruction reads more than two registers, so the
// slots never overflow. A retired p is kept — it reads as ready, like
// the committed producer it was.
func (e *entry) addProducer(p handle, np int) int {
	if p.isNil() || np >= len(e.producers) {
		return np
	}
	e.producers[np] = p
	return np + 1
}

// done reports whether the entry's result is available at cycle now.
func (e *entry) done(now int64) bool {
	switch e.state {
	case stateCompleted:
		return true
	case stateIssued:
		return e.completeAt <= now
	}
	return false
}

// ---- the entry pool ----

// nilSeq marks the sentinel in pool slot 0: no entry ever carries it,
// so the nil handle resolves to nothing.
const nilSeq = ^uint64(0)

// newPool returns an empty entry pool holding just the nil sentinel,
// and its empty free list, both with capacity for the window's
// high-water mark: windowEntries uncommitted entries plus at most a
// quarter-window of committed ones awaiting the sweep (cluster.commit).
func newPool(windowEntries int) ([]entry, []int32) {
	n := 1 + windowEntries + windowEntries/4
	pool := make([]entry, 1, n)
	pool[0].seq = nilSeq
	return pool, make([]int32, 0, n)
}

// newSlot claims a pool slot for a freshly fetched instruction: the
// most recently freed one, or — only while the window first fills — a
// slot appended to the pool. Appending may move the pool, so *entry
// pointers are never held across a newSlot call; everything that
// outlives one holds a handle.
func (c *cluster) newSlot() int32 {
	if n := len(c.free); n > 0 {
		slot := c.free[n-1]
		c.free = c.free[:n-1]
		return slot
	}
	c.pool = append(c.pool, entry{})
	return int32(len(c.pool) - 1)
}

// at returns the entry h names without the generation check: for the
// window and its subsets (fifo, pending, ready), which hold only
// unswept, hence live, entries.
func (c *cluster) at(h handle) *entry { return &c.pool[h.slot] }

// live returns the entry h names, or nil when h is nil or retired.
// Until its slot is reused a swept entry still resolves, exactly as
// the committed entry it is.
func (c *cluster) live(h handle) *entry {
	if e := &c.pool[h.slot]; e.seq == h.seq {
		return e
	}
	return nil
}

// resolved reports whether the producer h names has its result by now;
// nil and retired producers are long done.
func (c *cluster) resolved(h handle, now int64) bool {
	p := c.live(h)
	return p == nil || p.done(now)
}

// forwardingStore returns the youngest older same-thread, same-address
// store still in the window, or nil ("full load bypassing" with exact
// disambiguation, §3.1 — addresses are known at fetch). The candidate
// was bound at fetch from the thread's last-store-by-address map;
// because commit is in order per thread, the candidate having committed
// (or retired) means every older same-address store has too, so the
// answer degrades straight to nil — no FIFO scan needed (the reference
// scan is kept as forwardingStoreScan for the equivalence tests).
func (c *cluster) forwardingStore(load *entry) *entry {
	if st := c.live(load.fwdStore); st != nil && !st.committed {
		return st
	}
	return nil
}

// sourcesReady reports whether every producer of e has its result by
// now; when false, memWait tells whether a blocking producer is a load
// (memory hazard) rather than a compute op (data hazard).
func (c *cluster) sourcesReady(e *entry, now int64) (ready, memWait bool) {
	ready = true
	for _, h := range e.producers {
		if p := c.live(h); p != nil && !p.done(now) {
			ready = false
			if p.isLoad {
				memWait = true
			}
		}
	}
	return ready, memWait
}
