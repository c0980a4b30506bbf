package core

import (
	"fmt"

	"clustersmt/internal/config"
	"clustersmt/internal/interp"
	"clustersmt/internal/isa"
	"clustersmt/internal/parallel"
	"clustersmt/internal/stats"
)

// blockReason says why a thread's front end is stalled.
type blockReason uint8

const (
	blockNone    blockReason = iota
	blockBranch              // mispredicted branch in flight; resume at resolve
	blockLock                // spinning on a held lock
	blockBarrier             // parked at a barrier
	blockMigrate             // pipeline refill after a cluster migration
)

// threadCtx is one hardware context: a functional thread plus its
// front-end state and in-flight bookkeeping.
type threadCtx struct {
	id      int
	chip    int
	cluster *cluster
	fn      *interp.Thread
	// sync is the thread's synchronization controller (shared by all
	// threads of one parallel program; private per multiprogrammed job).
	sync *parallel.Sync
	// memBase offsets the thread's addresses in the physical memory
	// system (0 for a shared-address-space program; per-job stride for
	// multiprogramming).
	memBase int64

	block         blockReason
	pendingBranch handle // mispredicted branch being waited on
	lockGranted   bool   // TryLock succeeded while blocked; consume at fetch
	barArrived    bool
	barTarget     uint64

	// migrateTo, when non-nil, marks the thread as draining for a
	// migration to that cluster: fetch skips it, its in-flight window
	// empties through normal commit, and the move happens between
	// cycles once inWindow reaches zero (core/alloc.go). migrateReady
	// is the cycle the post-move blockMigrate refill stall lifts.
	migrateTo    *cluster
	migrateReady int64

	// lastWriterInt/FP name each register's youngest writer fetched on
	// this cluster; once retired they read as ready, like the
	// architectural value.
	lastWriterInt [isa.NumIntRegs]handle
	lastWriterFP  [isa.NumFPRegs]handle

	// lastStore maps an effective address to the thread's youngest
	// in-flight store to it (lazily allocated; evicted at commit). Loads
	// bind their forwarding candidate from it at fetch, replacing the
	// per-issue FIFO scan.
	lastStore map[int64]handle

	fifo     []handle // program order, for in-order commit
	fifoHead int
	inWindow int

	// frontEvent caches the cycle the fifo front can first commit:
	// its completeAt once issued, noEvent while it is still dispatched
	// or the fifo is empty. Commit's per-cycle poll over every thread
	// then compares one cached int instead of dereferencing the front
	// entry. Maintained at the three places the front can change:
	// push into an empty fifo, the front entry issuing, and pop.
	frontEvent int64

	fetched   uint64
	committed uint64
}

// done reports whether the thread has halted and drained.
func (t *threadCtx) done() bool { return t.fn.Halted && t.inWindow == 0 }

func (t *threadCtx) fifoLen() int { return len(t.fifo) - t.fifoHead }

func (t *threadCtx) fifoFront() handle { return t.fifo[t.fifoHead] }

func (t *threadCtx) fifoPop() {
	t.fifoHead++
	if t.fifoHead >= 16 && t.fifoHead*2 >= len(t.fifo) {
		// Slide the live tail down once half the slice is consumed, so
		// the capacity stays near twice the thread's in-flight count.
		n := copy(t.fifo, t.fifo[t.fifoHead:])
		t.fifo = t.fifo[:n]
		t.fifoHead = 0
	}
	t.frontEvent = noEvent
	if t.fifoLen() > 0 {
		if f := t.cluster.at(t.fifoFront()); f.state != stateDispatched {
			t.frontEvent = f.completeAt
		}
	}
}

// cluster is one SMT core: the unit of resource partitioning. Nothing
// in a cluster is visible to any other cluster (§3.3).
type cluster struct {
	chip int
	idx  int
	// gid is the cluster's index in Simulator.clusters (chip-major
	// global order) — the order the cycle loop visits clusters in.
	gid int
	cfg config.Arch

	threads []*threadCtx
	// migrateIn counts accepted-but-not-yet-completed migrations headed
	// here; capacity checks charge them so an epoch can never oversubscribe
	// a cluster's hardware contexts.
	migrateIn int
	window    []handle // reorder buffer: dispatch -> commit
	iqCount   int      // instruction-queue occupancy: dispatch -> issue
	zombies   int      // committed entries not yet swept out of window
	seq       uint64

	renameIntFree int
	renameFPFree  int

	// nextFree[i] is the cycle unit i of the class becomes available.
	intUnits  []int64
	ldstUnits []int64
	fpUnits   []int64

	// minFree[fuIdx(class)] caches the earliest next-free cycle across
	// the class's units, so a failed freeUnit probe (and fast-forward's
	// next-event computation) is O(1) instead of a scan.
	minFree [3]int64

	// Wakeup-path state (wakeup.go): the front-end pending deque
	// (entries not yet past the decode/rename delay, in fetch and hence
	// eligibleAt order), the wakeup wheel, the seq-sorted
	// ready list, and the waiting entries' hazard tallies maintained
	// incrementally. All empty on the scan path.
	pending     []handle
	pendingHead int
	wheel       wheel
	ready       []handle
	waitMemN    int
	waitDataN   int

	bp  *BranchPredictor
	btb *BTB

	// icount selects the ICOUNT fetch policy (fewest in-flight
	// instructions first) instead of pure round-robin — the Tullsen
	// alternative §5.2 mentions for the centralized SMT's fetch
	// bottleneck. Off by default.
	icount bool

	fetchRR  int
	commitRR int

	// pool holds the cluster's window entries, addressed by handle
	// (entry.go). A slot returns to the free list when the zombie sweep
	// removes its committed entry from the window, and the fetch path
	// reuses it, so the pool grows only while the window first fills
	// and the steady state allocates nothing. pool[0] is the nil
	// sentinel.
	pool []entry
	free []int32

	// Per-run counters.
	slots            stats.Slots
	renameStalls     uint64
	fetchGroups      uint64
	windowFullStalls uint64

	// pcHighWater is an upper bound on every static PC this cluster's
	// threads have touched (executed, or peeked by the front end /
	// fast-forward probes): it tracks the post-Step PC, which dominates
	// both the executed PC and the PC any subsequent Peek reads. The
	// fork path compares it against Program.PrefixLen to decide whether
	// a warm-up checkpoint is still variant-independent (snapshot.go).
	pcHighWater int64
}

func newCluster(chip, idx int, cfg config.Arch) *cluster {
	c := &cluster{
		chip:          chip,
		idx:           idx,
		cfg:           cfg,
		renameIntFree: cfg.RenameInt,
		renameFPFree:  cfg.RenameFP,
		intUnits:      make([]int64, cfg.IntUnits),
		ldstUnits:     make([]int64, cfg.LdStUnits),
		fpUnits:       make([]int64, cfg.FPUnits),
		bp:            NewBranchPredictor(cfg.PredictorSize()),
		btb:           NewBTB(cfg.BTBSize()),
	}
	c.pool, c.free = newPool(cfg.WindowEntries)
	c.window = make([]handle, 0, cap(c.free))
	return c
}

func (c *cluster) units(class isa.Class) []int64 {
	switch class {
	case isa.ClassLoad, isa.ClassStore:
		return c.ldstUnits
	case isa.ClassFP:
		return c.fpUnits
	default:
		return c.intUnits
	}
}

// fuIdx maps a functional-unit class to its minFree slot.
func fuIdx(class isa.Class) int {
	switch class {
	case isa.ClassLoad, isa.ClassStore:
		return 1
	case isa.ClassFP:
		return 2
	default:
		return 0
	}
}

// freeUnit returns the index of an available unit of the class at cycle
// now, or -1. The cached class minimum rejects the all-busy case — the
// common outcome under structural hazards and the one fast-forward
// probes — without touching the array.
func (c *cluster) freeUnit(class isa.Class, now int64) int {
	if c.minFree[fuIdx(class)] > now {
		return -1
	}
	us := c.units(class)
	for i, free := range us {
		if free <= now {
			return i
		}
	}
	return -1
}

// busyUnit marks unit of class busy until the given cycle, keeping the
// class's cached minimum next-free cycle exact.
func (c *cluster) busyUnit(class isa.Class, unit int, until int64) {
	us := c.units(class)
	us[unit] = until
	min := us[0]
	for _, f := range us[1:] {
		if f < min {
			min = f
		}
	}
	c.minFree[fuIdx(class)] = min
}

// nextUnitFree returns the earliest cycle any unit of the class frees —
// with every unit busy, the class's next structural event.
func (c *cluster) nextUnitFree(class isa.Class) int64 {
	return c.minFree[fuIdx(class)]
}

// ---- commit ----

// commit retires up to IssueWidth completed instructions across the
// cluster's threads, each thread strictly in order (§3.2: "instructions
// are committed on a per-thread basis"). It reports whether anything
// retired (the fast-forward idleness signal).
func (c *cluster) commit(s *Simulator, now int64) bool {
	budget := c.cfg.IssueWidth
	removed := false
	n := len(c.threads)
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[(c.commitRR+i)%n]
		for budget > 0 && t.frontEvent <= now {
			h := t.fifoFront()
			e := c.at(h)
			t.fifoPop()
			if e.isStore {
				if s.tr != nil {
					pre := s.dirCounters()
					s.msys.Store(now, c.chip, e.d.Addr+t.memBase)
					s.traceDirDelta(now, c, e, pre)
				} else {
					s.msys.Store(now, c.chip, e.d.Addr+t.memBase)
				}
			}
			if e.usesIntRename {
				c.renameIntFree++
			}
			if e.usesFPRename {
				c.renameFPFree++
			}
			e.committed = true
			c.zombies++
			if e.isStore && t.lastStore[e.d.Addr] == h {
				// Youngest in-flight store to this address: nothing
				// younger replaced it, so the mapping dies with it and
				// the map stays bounded by in-flight stores.
				delete(t.lastStore, e.d.Addr)
			}
			t.inWindow--
			if t.fn.Halted && t.inWindow == 0 {
				// The thread just drained after its halt: it leaves the
				// running-thread count (it cannot be sync-blocked here —
				// blocked threads never fetch, so they never halt).
				s.running--
				s.finished++
			}
			t.committed++
			s.committed++
			s.traceEvent(now, c, "C", e)
			budget--
			removed = true
		}
	}
	c.commitRR++

	// Compact lazily: committed entries are invisible to every window
	// walk already (their state is not dispatched), so sweeping them out
	// each cycle buys nothing. They only pad the slice, which the
	// capacity checks correct for via c.zombies. Sweep once a
	// quarter-window of zombies accumulates (or the window is all
	// zombies), skipping the still-uncommitted prefix in place; each
	// swept entry's slot goes back on the pool's free list.
	if threshold := c.cfg.WindowEntries / 4; c.zombies > 0 &&
		(c.zombies > threshold || c.zombies == len(c.window)) {
		w := c.window
		i := 0
		for i < len(w) && !c.at(w[i]).committed {
			i++
		}
		j := i
		for ; i < len(w); i++ {
			if h := w[i]; c.at(h).committed {
				c.free = append(c.free, h.slot)
			} else {
				w[j] = h
				j++
			}
		}
		c.window = w[:j]
		c.zombies = 0
	}
	return removed
}

// ---- issue ----

// issue is the reference issue stage: it selects up to IssueWidth ready
// instructions, oldest first, by re-scanning every window entry, and
// starts them on functional units. Unissuable instructions vote for
// their hazard class (§4.1). The wakeup path (issueEvent, wakeup.go)
// replaces the scan and must stay bit-identical to it.
func (c *cluster) issue(s *Simulator, now int64, votes *stats.Votes) int {
	issued := 0
	for _, h := range c.window {
		if issued >= c.cfg.IssueWidth {
			break
		}
		e := c.at(h)
		if e.state != stateDispatched || now < e.eligibleAt {
			continue
		}
		ready, memWait := c.sourcesReady(e, now)
		if !ready {
			if memWait {
				votes[stats.Memory]++
			} else {
				votes[stats.Data]++
			}
			continue
		}
		if c.tryIssue(s, e, now, votes) {
			issued++
		}
	}
	return issued
}

// debugCheckForwarding, set by tests, cross-checks the fetch-bound
// forwarding candidate against the reference FIFO scan on every load
// issue attempt.
var debugCheckForwarding bool

// tryIssue attempts to start a source-ready entry on a functional unit
// at cycle now. On failure it records the entry's hazard vote —
// structural on FU exhaustion, data behind a pending same-address
// store, memory when the MSHR file is full — and reports false; the
// caller retries next cycle. Shared by the scan and wakeup issue paths
// so the two stay vote-, order- and side-effect-identical by
// construction.
func (c *cluster) tryIssue(s *Simulator, e *entry, now int64, votes *stats.Votes) bool {
	class := e.fuCl
	unit := c.freeUnit(class, now)
	if unit < 0 {
		votes[stats.Structural]++
		return false
	}

	var completeAt int64
	switch {
	case e.isLoad:
		st := c.forwardingStore(e)
		if debugCheckForwarding {
			if ref := c.forwardingStoreScan(s.threads[e.thread], e); ref != st {
				panic(fmt.Sprintf("core: forwarding map %v disagrees with FIFO scan %v (load seq %d)", st, ref, e.seq))
			}
		}
		if st != nil {
			if !st.done(now) {
				// Store-to-load dependence through memory whose
				// producer has not generated its value yet.
				votes[stats.Data]++
				return false
			}
			e.forwarded = true
			completeAt = now + e.lat
			s.forwardedLoads++
		} else {
			var pre dirCounters
			if s.tr != nil {
				pre = s.dirCounters()
			}
			dataReady, cls, ok := s.msys.Load(now, c.chip, e.d.Addr+s.threads[e.thread].memBase)
			if !ok {
				// MSHR file full: retry next cycle.
				votes[stats.Memory]++
				return false
			}
			e.memClass = cls
			// Table 1 charges loads 2 cycles on an L1 hit: address
			// generation plus the 1-cycle L1 round trip returned by
			// the memory system.
			completeAt = dataReady + 1
			if s.tr != nil {
				s.traceMem(now, completeAt, c, e, cls)
				s.traceDirDelta(now, c, e, pre)
			}
		}
	case e.isStore:
		// Address generation only; the access itself happens at
		// commit and never blocks the pipeline.
		completeAt = now + e.lat
	default:
		lat := e.lat
		if lat <= 0 {
			lat = 1
		}
		completeAt = now + lat
	}

	c.busyUnit(class, unit, now+e.occ)

	e.state = stateIssued
	e.completeAt = completeAt
	if t := s.threads[e.thread]; t.fifoFront().seq == e.seq {
		t.frontEvent = completeAt
	}
	c.iqCount--
	s.traceEvent(now, c, "I", e)
	if s.EventIssue {
		c.wake(e)
	}
	return true
}

// forwardingStoreScan is the reference FIFO scan behind
// entry.forwardingStore's map-bound answer; kept for the equivalence
// tests (wakeup_test.go) and the debugCheckForwarding cross-check.
func (c *cluster) forwardingStoreScan(t *threadCtx, load *entry) *entry {
	for i := len(t.fifo) - 1; i >= t.fifoHead; i-- {
		e := c.at(t.fifo[i])
		if e.seq >= load.seq {
			continue
		}
		if e.isStore && e.d.Addr == load.d.Addr {
			return e
		}
	}
	return nil
}

// ---- fetch ----

// unblock re-evaluates every blocked thread at the start of the fetch
// stage: branch redirects resolve when the branch completes; lock
// spinners retry acquisition (grant order follows deterministic
// simulator polling order); barrier waiters check the generation. It
// reports whether any thread resumed (failed lock polls do not count:
// they leave the machine frozen and are bulk-replayed by fast-forward).
func (c *cluster) unblock(s *Simulator, now int64) bool {
	resumed := false
	for _, t := range c.threads {
		switch t.block {
		case blockBranch:
			if c.resolved(t.pendingBranch, now) {
				t.block = blockNone
				t.pendingBranch = handle{}
				resumed = true
			}
		case blockLock:
			if !t.lockGranted && t.sync.TryLock(t.fn.Peek().Imm, t.id) {
				t.lockGranted = true
			}
			if t.lockGranted {
				t.block = blockNone
				s.running++
				resumed = true
			}
		case blockBarrier:
			if t.sync.Released(t.fn.Peek().Imm, t.barTarget) {
				t.block = blockNone
				s.running++
				resumed = true
			}
		case blockMigrate:
			// Pipeline refill after a migration: a plain timed stall, not
			// a synchronization block, so the running count never moved.
			if now >= t.migrateReady {
				t.block = blockNone
				resumed = true
			}
		}
	}
	return resumed
}

// fetch selects a thread round-robin (§3.2) and pulls up to IssueWidth
// instructions from its functional context into the window, stopping at
// taken branches, mispredictions, blocking sync, halts, or resource
// exhaustion. Slots the first thread leaves unused are offered to one
// more thread (the fetch-partitioning alternative of [Tullsen et al.]
// that §5.2 cites), which keeps many-context clusters from starving
// chain-bound threads.
func (c *cluster) fetch(s *Simulator, now int64, votes *stats.Votes) bool {
	budget := c.cfg.IssueWidth
	progress := false
	for picks := 0; picks < 2 && budget > 0; picks++ {
		t := c.pickFetchThread()
		if t == nil {
			break
		}
		// Progress means instructions entered the window or the thread's
		// block state changed; a fruitless stalled pick is not progress
		// (its counters are bulk-replayed by the fast-forward).
		fetchedBefore, blockBefore := t.fetched, t.block
		budget = c.fetchFrom(s, t, now, budget, votes)
		if t.fetched != fetchedBefore || t.block != blockBefore {
			progress = true
		}
	}
	return progress
}

// fetchFrom pulls up to budget instructions from t, returning the
// unused budget.
func (c *cluster) fetchFrom(s *Simulator, t *threadCtx, now int64, budget int, votes *stats.Votes) int {
	c.fetchGroups++

	width := budget
	for n := 0; n < width; n++ {
		if t.fn.Halted {
			break
		}
		// Table 2 sizes the instruction queue and the reorder buffer
		// separately (equal sizes): issued instructions leave the
		// queue, so long-latency loads in flight do not clog it.
		if len(c.window)-c.zombies >= c.cfg.WindowEntries || c.iqCount >= c.cfg.WindowEntries {
			c.windowFullStalls++
			break
		}
		in := t.fn.Peek()
		inf := in.Info()

		// Synchronization is resolved at the front end; the paper's
		// spin-wait slots surface as the thread voting "sync" while
		// blocked here.
		switch in.Op {
		case isa.OpLock:
			if t.lockGranted {
				t.lockGranted = false
			} else if !t.sync.TryLock(in.Imm, t.id) {
				t.block = blockLock
				s.running--
				return 0 // fetch redirect consumes the cycle
			}
		case isa.OpUnlock:
			t.sync.Unlock(in.Imm, t.id)
		case isa.OpBarrier:
			if !t.barArrived {
				t.barTarget = t.sync.Arrive(in.Imm)
				t.barArrived = true
			}
			if !t.sync.Released(in.Imm, t.barTarget) {
				t.block = blockBarrier
				s.running--
				return 0 // fetch redirect consumes the cycle
			}
			t.barArrived = false
		}

		// Rename: one register from the matching pool per destination.
		needInt := inf.WritesRD && in.RD != isa.RegZero
		needFP := inf.WritesFD
		if (needInt && c.renameIntFree == 0) || (needFP && c.renameFPFree == 0) {
			c.renameStalls++
			votes[stats.Other]++
			return 0
		}

		d := t.fn.Step()
		if pc := t.fn.PC; pc > c.pcHighWater {
			// Post-Step PC: the next instruction this thread can touch.
			// Recording it (rather than d.PC) also covers front-end Peeks
			// that never reach Step — a thread's current PC is always some
			// earlier Step's post-PC, or the entry point.
			c.pcHighWater = pc
		}
		fc := inf.Class
		if fc == isa.ClassNone {
			// Sync and halt pseudo-ops borrow an integer unit slot.
			fc = isa.ClassInt
		}
		occ := int64(1)
		if !inf.Pipel {
			occ = int64(inf.Latency)
		}
		slot := c.newSlot()
		e := &c.pool[slot]
		*e = entry{} // cleared in place: a composite literal would build and copy a temporary
		e.d = d
		e.thread = int32(t.id)
		e.slot = slot
		e.seq = c.seq
		e.fetchedAt = now
		e.eligibleAt = now + config.FrontEndDelay
		e.fuCl = fc
		e.lat = int64(inf.Latency)
		e.occ = occ
		e.isLoad = inf.Class == isa.ClassLoad
		e.isStore = inf.Class == isa.ClassStore
		e.isBranch = inf.Branch
		c.seq++

		// Wire register dependences to in-flight producers.
		np := 0
		if inf.ReadsRS1 && in.RS1 != isa.RegZero {
			np = e.addProducer(t.lastWriterInt[in.RS1], np)
		}
		if inf.ReadsRS2 && in.RS2 != isa.RegZero {
			np = e.addProducer(t.lastWriterInt[in.RS2], np)
		}
		if inf.ReadsFS1 {
			np = e.addProducer(t.lastWriterFP[in.FS1], np)
		}
		if inf.ReadsFS2 {
			np = e.addProducer(t.lastWriterFP[in.FS2], np)
		}
		h := e.ref()
		if needInt {
			c.renameIntFree--
			e.usesIntRename = true
			t.lastWriterInt[in.RD] = h
		}
		if needFP {
			c.renameFPFree--
			e.usesFPRename = true
			t.lastWriterFP[in.FD] = h
		}

		// Memory-dependence bookkeeping: stores publish themselves as
		// the youngest write to their address; loads bind the current
		// youngest as their forwarding candidate (addresses are known
		// at fetch, §3.1).
		switch {
		case e.isStore:
			if t.lastStore == nil {
				t.lastStore = make(map[int64]handle)
			}
			t.lastStore[e.d.Addr] = h
		case e.isLoad:
			e.fwdStore = t.lastStore[e.d.Addr]
		}

		c.window = append(c.window, h)
		c.iqCount++
		t.fifo = append(t.fifo, h)
		t.inWindow++
		t.fetched++
		s.traceEvent(now, c, "F", e)
		if s.EventIssue {
			c.dispatchEvent(e)
		}

		if inf.Branch {
			if c.handleBranch(t, e, d) {
				// The redirect point: no wrong-path instructions were
				// fetched, so the squash marks where fetch stops.
				s.traceEvent(now, c, "S", e)
				return 0 // mispredicted: fetch blocked until resolve
			}
			if d.Taken {
				// The taken branch ends this thread's group; leftover
				// slots may go to the next thread.
				return budget - (n + 1)
			}
		}
	}
	fetched := width
	if len(c.window)-c.zombies >= c.cfg.WindowEntries || c.iqCount >= c.cfg.WindowEntries || t.fn.Halted {
		// Window-full and halt paths may have consumed fewer slots,
		// but a full window ends the cycle's fetching entirely.
		return 0
	}
	return budget - fetched
}

// handleBranch trains the predictors and, on a misprediction, blocks
// the thread's fetch until the branch resolves. It returns true when
// fetch must stop because of a misprediction.
func (c *cluster) handleBranch(t *threadCtx, e *entry, d interp.DynInstr) bool {
	switch {
	case d.Instr.Info().CondBr:
		_, correct := c.bp.PredictAndUpdate(d.PC, d.Taken)
		if !correct {
			e.mispredicted = true
		}
	case d.Instr.Op == isa.OpJr:
		_, correct := c.btb.PredictAndUpdate(d.PC, d.Target)
		if !correct {
			e.mispredicted = true
		}
	default:
		// Direct jumps (jump/jal) have statically known targets: no
		// misprediction, just a fetch break handled by the caller.
	}
	if e.mispredicted {
		t.block = blockBranch
		t.pendingBranch = e.ref()
		return true
	}
	return false
}

// pickFetchThread returns the next fetchable thread — round-robin by
// default, or the thread with the fewest in-flight instructions under
// the ICOUNT policy (round-robin breaks ties) — or nil when no thread
// can fetch this cycle.
func (c *cluster) pickFetchThread() *threadCtx {
	n := len(c.threads)
	if c.icount {
		var best *threadCtx
		bestIdx := 0
		for i := 0; i < n; i++ {
			t := c.threads[(c.fetchRR+i)%n]
			if t.fn.Halted || t.block != blockNone || t.migrateTo != nil {
				continue
			}
			if best == nil || t.inWindow < best.inWindow {
				best, bestIdx = t, i
			}
		}
		if best != nil {
			c.fetchRR = (c.fetchRR + bestIdx + 1) % n
		}
		return best
	}
	for i := 0; i < n; i++ {
		t := c.threads[(c.fetchRR+i)%n]
		if t.fn.Halted || t.block != blockNone || t.migrateTo != nil {
			continue
		}
		c.fetchRR = (c.fetchRR + i + 1) % n
		return t
	}
	return nil
}

// threadVotes adds the per-thread front-end hazard votes for this cycle
// (§4.1: sync, control and fetch classes).
func (c *cluster) threadVotes(votes *stats.Votes) {
	for _, t := range c.threads {
		switch {
		case t.done():
			// Finished threads contribute nothing.
		case t.block == blockLock || t.block == blockBarrier:
			votes[stats.Sync]++
		case t.block == blockBranch:
			votes[stats.Control]++
		case t.block == blockMigrate:
			// Migration refill is charged as an "other" pipeline stall —
			// it is neither synchronization nor a control hazard.
			votes[stats.Other]++
		case t.inWindow == 0:
			votes[stats.Fetch]++
		}
	}
}
