package core

import (
	"fmt"

	"clustersmt/internal/alloc"
	"clustersmt/internal/coherence"
	"clustersmt/internal/isa"
)

// This file wires the pluggable allocation subsystem (internal/alloc)
// into the simulator: initial placement through Allocator.Place, and —
// for dynamic policies — an epoch loop that samples committed feedback
// between cycles, lets the policy propose migrations, and models each
// accepted move honestly: the thread's in-flight window drains through
// normal commit (fetch skips it), the move happens between cycles, and
// the thread then sits out a fixed pipeline-refill stall. Cache
// affinity loss needs no modeling of its own — caches are per chip, so
// a cross-chip move simply starts missing in the destination chip's
// cold cache.
//
// Determinism contract: every policy decision is a pure function of a
// snapshot built from committed per-epoch state in fixed (thread id /
// global cluster) order, taken between cycles. The stepped and
// fast-forward loops therefore feed a policy byte-identical inputs at
// byte-identical cycles, and the whole run stays deterministic under
// both (guarded by TestAllocEventDrivenDifferential).

// MigrationColdStart is the fixed front-end penalty a migrated thread
// pays before fetching on its new cluster: the pipeline-refill cost of
// redirecting a hardware context, charged on top of the organic cache
// cold-start the per-chip cache model produces for cross-chip moves.
const MigrationColdStart = 50

// allocState is the runtime state of a dynamic allocation policy.
type allocState struct {
	pol      alloc.Allocator
	interval int64 // cycles per epoch
	nextAt   int64 // next boundary cycle
	epoch    uint64
	// migrations counts accepted (not merely proposed) migrations.
	migrations uint64

	// Previous-boundary counter snapshots, so each epoch's feedback is a
	// delta rather than a running total.
	prevThreadCommitted []uint64
	prevChipMem         []coherence.MemSnapshot
	// lastMigrated[tid] is the epoch at whose boundary the thread last
	// migrated (-1 = never); policies receive it as an age.
	lastMigrated []int64
}

// initAlloc resolves the machine's allocation policy for n threads. It
// returns the initial assignment (nil means the seed placement loop
// runs unchanged — the bit-identity guarantee for the default
// configuration) and arms the epoch state for dynamic policies.
func (s *Simulator) initAlloc(n int) ([]int, error) {
	a := s.Machine.Alloc.Normalize()
	if a.Policy == "" {
		return nil, nil
	}
	pol, err := alloc.New(a.Policy)
	if err != nil {
		return nil, err
	}
	infos := s.clusterInfos()
	assign := pol.Place(n, infos)
	if err := validAssignment(n, infos, assign); err != nil {
		return nil, fmt.Errorf("core: policy %q initial placement: %w", pol.Name(), err)
	}
	if pol.Dynamic() {
		last := make([]int64, n)
		for i := range last {
			last[i] = -1
		}
		s.alloc = &allocState{
			pol:                 pol,
			interval:            a.Epoch,
			nextAt:              a.Epoch,
			prevThreadCommitted: make([]uint64, n),
			prevChipMem:         make([]coherence.MemSnapshot, len(s.chips)),
			lastMigrated:        last,
		}
	}
	return assign, nil
}

// clusterInfos describes the machine's clusters for the alloc package.
func (s *Simulator) clusterInfos() []alloc.ClusterInfo {
	infos := make([]alloc.ClusterInfo, len(s.clusters))
	for i, cl := range s.clusters {
		infos[i] = alloc.ClusterInfo{
			GID:      cl.gid,
			Chip:     cl.chip,
			Index:    cl.idx,
			Capacity: cl.cfg.ThreadsPerCluster,
		}
	}
	return infos
}

// validAssignment checks that assign maps each of n threads to exactly
// one real cluster without exceeding any cluster's capacity.
func validAssignment(n int, infos []alloc.ClusterInfo, assign []int) error {
	if len(assign) != n {
		return fmt.Errorf("assignment covers %d of %d threads", len(assign), n)
	}
	occ := make([]int, len(infos))
	for tid, g := range assign {
		if g < 0 || g >= len(infos) {
			return fmt.Errorf("thread %d assigned to cluster %d of %d", tid, g, len(infos))
		}
		occ[g]++
		if occ[g] > infos[g].Capacity {
			return fmt.Errorf("cluster %d over capacity %d", g, infos[g].Capacity)
		}
	}
	return nil
}

// SetAssignment re-places the threads of a fresh (never stepped)
// simulator according to assign — the oracle policy's entry point: the
// harness searches for the best static assignment offline
// (SearchStatic) and installs it here before Run.
func (s *Simulator) SetAssignment(assign []int) error {
	if s.cycle != 0 || s.committed != 0 {
		return fmt.Errorf("core: SetAssignment requires a fresh simulator")
	}
	if err := validAssignment(len(s.threads), s.clusterInfos(), assign); err != nil {
		return fmt.Errorf("core: SetAssignment: %w", err)
	}
	for _, cl := range s.clusters {
		cl.threads = cl.threads[:0]
	}
	for tid, t := range s.threads {
		cl := s.clusters[assign[tid]]
		t.cluster = cl
		t.chip = cl.chip
		cl.threads = append(cl.threads, t)
	}
	return nil
}

// Assignment returns each thread's current cluster GID in thread-id
// order (tests and tools).
func (s *Simulator) Assignment() []int {
	out := make([]int, len(s.threads))
	for i, t := range s.threads {
		out[i] = t.cluster.gid
	}
	return out
}

// allocEpoch runs one epoch boundary: build the committed feedback
// snapshot in fixed order, let the policy propose migrations, validate
// and accept them, and schedule the next boundary. Runs between cycles.
func (s *Simulator) allocEpoch() {
	a := s.alloc
	a.epoch++

	snap := alloc.Snapshot{Cycle: s.cycle, Epoch: a.epoch}
	chipMem := make([]coherence.MemSnapshot, len(s.chips))
	for chip := range s.chips {
		chipMem[chip] = s.msys.ChipSnapshot(chip, s.cycle)
	}
	snap.Clusters = make([]alloc.ClusterSample, len(s.clusters))
	for i, cl := range s.clusters {
		cur, prev := chipMem[cl.chip], a.prevChipMem[cl.chip]
		snap.Clusters[i] = alloc.ClusterSample{
			ClusterInfo: alloc.ClusterInfo{
				GID:      cl.gid,
				Chip:     cl.chip,
				Index:    cl.idx,
				Capacity: cl.cfg.ThreadsPerCluster,
			},
			L1Hits:   cur.L1Hits - prev.L1Hits,
			L1Misses: cur.L1Misses - prev.L1Misses,
			L2Hits:   cur.L2Hits - prev.L2Hits,
			L2Misses: cur.L2Misses - prev.L2Misses,
			// Occupancy is instantaneous (not a counter): the boundary
			// value itself is the saturation signal.
			MSHROccupancy: uint64(cur.MSHROccupancy),
		}
	}
	a.prevChipMem = chipMem

	snap.Threads = make([]alloc.ThreadSample, len(s.threads))
	for i, t := range s.threads {
		d := t.committed - a.prevThreadCommitted[i]
		a.prevThreadCommitted[i] = t.committed
		since := int64(-1)
		if a.lastMigrated[i] >= 0 {
			since = int64(a.epoch) - a.lastMigrated[i]
		}
		g := t.cluster.gid
		snap.Threads[i] = alloc.ThreadSample{
			ID:        t.id,
			Cluster:   g,
			Committed: d,
			InWindow:  t.inWindow,
			// A mid-drain thread reads as blocked so no policy tries to
			// move it twice.
			Blocked:      t.block != blockNone || t.migrateTo != nil,
			Finished:     t.done(),
			SinceMigrate: since,
		}
		cs := &snap.Clusters[g]
		if !t.done() {
			cs.Threads++
		}
		cs.InFlight += t.inWindow
		cs.Committed += d
	}

	for _, mg := range a.pol.Rebalance(&snap) {
		s.applyMigration(mg)
	}
	a.nextAt = s.cycle + a.interval
}

// applyMigration validates one proposed migration and, when sound,
// marks the thread draining. Invalid proposals are dropped — dropping
// is deterministic, so a buggy policy degrades performance, never
// correctness.
func (s *Simulator) applyMigration(mg alloc.Migration) bool {
	if mg.Thread < 0 || mg.Thread >= len(s.threads) {
		return false
	}
	t := s.threads[mg.Thread]
	if t.done() || t.migrateTo != nil || t.block != blockNone {
		return false
	}
	if mg.To < 0 || mg.To >= len(s.clusters) {
		return false
	}
	dst := s.clusters[mg.To]
	if dst == t.cluster {
		return false
	}
	live := 0
	for _, dt := range dst.threads {
		if !dt.done() {
			live++
		}
	}
	if live+dst.migrateIn+1 > dst.cfg.ThreadsPerCluster {
		return false
	}
	t.migrateTo = dst
	dst.migrateIn++
	s.migrating = append(s.migrating, t)
	s.alloc.lastMigrated[t.id] = int64(s.alloc.epoch)
	s.alloc.migrations++
	return true
}

// completeMigrations moves every drained marked thread to its
// destination cluster. It runs between the commit and issue stages of
// a cycle — after the drain can finish, before the new cluster could
// act — at the same point in both the stepped and fast-forward loops.
// A thread that halts while draining cancels its move.
func (s *Simulator) completeMigrations(now int64) bool {
	moved := false
	keep := s.migrating[:0]
	for _, t := range s.migrating {
		switch {
		case t.done():
			t.migrateTo.migrateIn--
			t.migrateTo = nil
		case t.inWindow == 0:
			s.moveThread(t, now)
			moved = true
		default:
			keep = append(keep, t)
		}
	}
	for i := len(keep); i < len(s.migrating); i++ {
		s.migrating[i] = nil
	}
	s.migrating = keep
	return moved
}

// moveThread performs the between-cycles re-homing of a fully drained
// thread: splice it out of the source cluster, append it to the
// destination, discard rename/store-forwarding history and the
// pending-branch handle (the move can land before unblock clears it;
// all of them name slots in the old cluster's pool, and every producer
// is committed by now), and charge the pipeline-refill stall.
func (s *Simulator) moveThread(t *threadCtx, now int64) {
	src, dst := t.cluster, t.migrateTo
	for i, st := range src.threads {
		if st == t {
			src.threads = append(src.threads[:i], src.threads[i+1:]...)
			break
		}
	}
	// Keep the round-robin cursor in range for the shrunken list (the
	// pick arithmetic is modular, but snapshots validate the bound).
	if n := len(src.threads); n > 0 {
		src.fetchRR %= n
	} else {
		src.fetchRR = 0
	}
	dst.threads = append(dst.threads, t)
	dst.migrateIn--
	t.cluster = dst
	t.chip = dst.chip
	t.migrateTo = nil
	t.lastWriterInt = [isa.NumIntRegs]handle{}
	t.lastWriterFP = [isa.NumFPRegs]handle{}
	t.lastStore = nil
	t.pendingBranch = handle{}
	t.block = blockMigrate
	t.migrateReady = now + MigrationColdStart
}

// ---- oracle search ----

// SearchStatic profiles candidate static assignments over a prefix of
// prefixCycles and returns the best and worst performers — the oracle
// upper bound and the adversarial baseline the dynamic policies are
// measured between. mk must build a fresh, identically configured
// simulator on every call. Candidates are enumerated canonically
// (clusters within a chip, and whole empty chips, are interchangeable,
// so symmetric duplicates are skipped) and capped at maxCandidates;
// score is committed instructions at the prefix boundary, ties broken
// by enumeration order, so the search is fully deterministic.
func SearchStatic(mk func() (*Simulator, error), prefixCycles int64, maxCandidates int) (best, worst []int, err error) {
	probe, err := mk()
	if err != nil {
		return nil, nil, err
	}
	cands := enumerateAssignments(len(probe.threads), probe.clusterInfos(), maxCandidates)
	var bestScore, worstScore uint64
	for i, cand := range cands {
		sim, err := mk()
		if err != nil {
			return nil, nil, err
		}
		if err := sim.SetAssignment(cand); err != nil {
			return nil, nil, err
		}
		if err := sim.RunTo(prefixCycles); err != nil {
			return nil, nil, err
		}
		score := sim.committed
		if i == 0 || score > bestScore {
			bestScore, best = score, cand
		}
		if i == 0 || score < worstScore {
			worstScore, worst = score, cand
		}
	}
	return best, worst, nil
}

// enumerateAssignments lists canonical thread-to-cluster assignments:
// every placement of n threads onto the clusters respecting capacity,
// up to within-chip cluster interchange and whole-chip interchange.
// Enumeration is depth-first in thread-id order, truncated at cap.
func enumerateAssignments(n int, infos []alloc.ClusterInfo, cap int) [][]int {
	var out [][]int
	assign := make([]int, n)
	occ := make([]int, len(infos))
	chipOcc := map[int]int{}
	var rec func(tid int)
	rec = func(tid int) {
		if len(out) >= cap {
			return
		}
		if tid == n {
			out = append(out, append([]int(nil), assign...))
			return
		}
		usedEmptyChip := false
		for g, c := range infos {
			if occ[g] >= c.Capacity {
				continue
			}
			if occ[g] == 0 {
				// An empty cluster is interchangeable with any earlier
				// empty cluster on the same chip; an entirely empty chip
				// with any other entirely empty chip.
				dup := false
				for g2 := 0; g2 < g; g2++ {
					if infos[g2].Chip == c.Chip && occ[g2] == 0 {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				if chipOcc[c.Chip] == 0 {
					if usedEmptyChip {
						continue
					}
					usedEmptyChip = true
				}
			}
			assign[tid] = g
			occ[g]++
			chipOcc[c.Chip]++
			rec(tid + 1)
			occ[g]--
			chipOcc[c.Chip]--
		}
	}
	rec(0)
	return out
}
