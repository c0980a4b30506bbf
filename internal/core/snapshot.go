package core

import (
	"errors"
	"fmt"
	"sort"

	"clustersmt/internal/coherence"
	"clustersmt/internal/config"
	"clustersmt/internal/interp"
	"clustersmt/internal/isa"
	"clustersmt/internal/obs"
	"clustersmt/internal/prog"
	"clustersmt/internal/snap"
	"clustersmt/internal/stats"
)

// This file implements checkpoint/restore and copy-on-write forking.
//
// Snapshot serializes the complete simulator state — clusters (window
// entry graph, wakeup wheel, predictors, per-thread front-end state),
// synchronization controller, sampler ring, functional memory and the
// timing memory system — into a versioned, self-validating binary
// envelope. Restore rebuilds an equivalent simulator from the bytes;
// ForkProgram clones a paused simulator in memory, sharing the interp
// memory pages and cache tag arrays copy-on-write so a warmed parent
// can be forked once per sweep variant at near-zero cost.
//
// The contract is the house one: bit-identity, not approximation.
// Running a restored or forked simulator to completion produces a
// Result (and off-Result memory/coherence counters, and obs frames)
// reflect.DeepEqual to running the original from scratch — guarded by
// TestCheckpointDifferential across every preset × machine ×
// sequential/parallel.
//
// Encoding invariants:
//
//   - Snapshots are taken between cycles (a fresh simulator, one paused
//     by RunTo, or a completed one). Mid-cycle state (parallel runner,
//     undrained store queues) is refused with ErrSnapshotUnsupported.
//   - Handle-linked window entries are serialized as one per-cluster
//     universe: a deterministic worklist enumeration assigns each entry
//     reachable through a live handle an index, handles encode as
//     indices (-1 = nil; a retired handle reads as nil and is written
//     as one), and decode rebuilds the cluster's entry pool from it.
//     Static instruction words are NOT serialized: entry.d.Instr is
//     re-derived from Program.Code[d.PC], which is what lets a prefix
//     checkpoint restore under a different same-prefix program variant.
//   - Ephemeral positions that do not affect behavior are normalized
//     rather than preserved: fifo/pending head offsets restart at 0,
//     the wakeup wheel is written in (cycle, seq) order and its heap
//     rebuilt by pushing (same-cycle pop order is unobservable), and
//     stale wheel events are dropped.
//   - Decoding validates everything it reads (counts against remaining
//     bytes, indices against ranges, enums against their bounds) and
//     fails with a typed error instead of panicking; FuzzSnapshotDecode
//     holds it to that.

// SnapshotVersion is the current checkpoint format version. Any change
// to the encoding must bump it; Restore refuses versions it does not
// understand with ErrSnapshotVersion. Version 2 added the dynamic
// allocation sections (per-cluster thread assignment, migration refill
// state, allocator epoch state); version-1 payloads — which could only
// ever hold the static seed placement — still decode.
const SnapshotVersion = 2

// snapshotMinVersion is the oldest payload version Restore accepts.
const snapshotMinVersion = 1

// snapMagic is "CSMT" as a big-endian u32.
const snapMagic = 0x43534d54

// maxSnapshotRingCap bounds the sampler ring capacity a checkpoint may
// declare: the decoder pre-allocates the ring, so the bound is what
// keeps a crafted payload from demanding an arbitrarily large
// allocation. Far above DefaultRingCap; Snapshot refuses larger rings.
const maxSnapshotRingCap = 1 << 16

// Typed snapshot errors, matchable with errors.Is.
var (
	// ErrSnapshotVersion is returned by Restore for a checkpoint whose
	// format version this build does not understand.
	ErrSnapshotVersion = errors.New("core: unsupported snapshot version")
	// ErrSnapshotTruncated is returned when the payload ends before the
	// decoder is done (an alias of the codec's sentinel, re-exported so
	// callers need not import internal/snap).
	ErrSnapshotTruncated = snap.ErrTruncated
	// ErrSnapshotCorrupt is returned for structurally invalid payloads:
	// bad magic, out-of-range indices, impossible counts.
	ErrSnapshotCorrupt = errors.New("core: corrupt snapshot")
	// ErrSnapshotMismatch is returned when a checkpoint is replayed
	// against a different machine configuration or an incompatible
	// program (neither the full fingerprint nor a valid shared prefix
	// matches).
	ErrSnapshotMismatch = errors.New("core: snapshot does not match machine/program")
	// ErrSnapshotUnsupported is returned by Snapshot/Fork for simulator
	// configurations the checkpoint format does not cover.
	ErrSnapshotUnsupported = errors.New("core: simulator not snapshottable")
)

// PCHighWater returns an upper bound on every static PC any thread has
// touched so far (see cluster.pcHighWater). While it stays below
// Program.PrefixLen, the simulator's entire state is a function of the
// shared prefix only, so checkpoints and forks transfer to any program
// with the same PrefixKey.
func (s *Simulator) PCHighWater() int64 {
	var hw int64
	for _, c := range s.clusters {
		if c.pcHighWater > hw {
			hw = c.pcHighWater
		}
	}
	return hw
}

// PrefixValid reports whether the simulator's state is still a function
// of the program's marked shared prefix alone — the condition under
// which ForkProgram accepts a different same-prefix variant and a
// persisted snapshot restores under one.
func (s *Simulator) PrefixValid() bool {
	pl := int64(s.Program.PrefixLen)
	return pl > 0 && s.PCHighWater() < pl
}

// snapshotSupported reports why this simulator cannot be checkpointed
// or forked, or nil. The excluded configurations are all explicitly
// out of scope: multiprogrammed runs (per-job memories and sync
// controllers), reference memory paths (their map-of-pointer directory
// has no stable encoding and exists only as a differential baseline),
// instruction tracing (the trace writer is an open file), and a run
// currently inside the parallel runner (between runs par is nil; the
// Parallel flag itself is a host execution choice and is not state).
func (s *Simulator) snapshotSupported() error {
	if len(s.mems) > 1 {
		return fmt.Errorf("%w: multiprogrammed simulators", ErrSnapshotUnsupported)
	}
	if s.msys.ReferencePaths() {
		return fmt.Errorf("%w: reference memory paths", ErrSnapshotUnsupported)
	}
	if s.tr != nil {
		return fmt.Errorf("%w: instruction tracing active", ErrSnapshotUnsupported)
	}
	if s.par != nil {
		return fmt.Errorf("%w: mid-run parallel state", ErrSnapshotUnsupported)
	}
	for _, c := range s.clusters {
		if len(c.storeQ) != 0 {
			return fmt.Errorf("%w: undrained store queue (mid-cycle state)", ErrSnapshotUnsupported)
		}
	}
	if len(s.migrating) != 0 {
		// A draining migration resolves within the longest in-flight
		// latency; callers pausing at an arbitrary cycle simply step past
		// it. Post-move refill stalls (blockMigrate) snapshot fine.
		return fmt.Errorf("%w: thread migration draining (mid-epoch state)", ErrSnapshotUnsupported)
	}
	if s.obs != nil && s.obs.ring.Cap() > maxSnapshotRingCap {
		return fmt.Errorf("%w: sampler ring capacity %d exceeds %d", ErrSnapshotUnsupported, s.obs.ring.Cap(), maxSnapshotRingCap)
	}
	return nil
}

// Snapshot serializes the full simulator state into a stable,
// versioned binary form. The simulator must be between cycles: fresh,
// paused by RunTo, or completed. The envelope carries the machine's
// canonical hash and the program's fingerprint (plus its prefix key
// when the state is still prefix-only), which Restore checks before
// touching the payload.
func (s *Simulator) Snapshot() ([]byte, error) {
	if err := s.snapshotSupported(); err != nil {
		return nil, err
	}
	w := snap.NewWriter()
	w.U32(snapMagic)
	w.U32(SnapshotVersion)
	mh := s.Machine.Hash()
	w.Bytes8(mh[:])
	fp := s.Program.Fingerprint()
	w.Bytes8(fp[:])
	key, ok := s.Program.PrefixKey()
	w.Bool(ok && s.PrefixValid())
	w.Bytes8(key[:])
	s.encodeCore(w)
	s.mem.EncodeSnap(w)
	s.msys.EncodeSnap(w)
	return w.Bytes(), nil
}

// Restore builds a simulator from a Snapshot payload. The machine must
// hash-match the one the snapshot was taken on; the program must either
// fingerprint-match the original or share its marked prefix while the
// snapshot's state was still prefix-only. On any error the returned
// simulator is nil and nothing else is affected — Restore decodes into
// a freshly built shell, so a bad payload can never leave a live
// simulator partially mutated. The restored simulator is resumable:
// Run/RunTo continue from the checkpointed cycle.
func Restore(m config.Machine, p *prog.Program, data []byte) (*Simulator, error) {
	r := snap.NewReader(data)
	magic, ver := r.U32(), r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", err)
	}
	if magic != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrSnapshotCorrupt, magic)
	}
	if ver < snapshotMinVersion || ver > SnapshotVersion {
		return nil, fmt.Errorf("%w: payload version %d, this build reads %d through %d", ErrSnapshotVersion, ver, snapshotMinVersion, SnapshotVersion)
	}
	mh := r.Bytes8()
	fp := r.Bytes8()
	prefixOK := r.Bool()
	pk := r.Bytes8()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", err)
	}
	if len(mh) != 32 || len(fp) != 32 || len(pk) != 32 {
		return nil, fmt.Errorf("%w: malformed identity hashes", ErrSnapshotCorrupt)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if want := m.Hash(); string(mh) != string(want[:]) {
		return nil, fmt.Errorf("%w: machine configuration differs", ErrSnapshotMismatch)
	}
	if want := p.Fingerprint(); string(fp) != string(want[:]) {
		key, ok := p.PrefixKey()
		if !prefixOK || !ok || string(pk) != string(key[:]) {
			return nil, fmt.Errorf("%w: program differs and no shared warm-up prefix applies", ErrSnapshotMismatch)
		}
	}
	s, err := newShell(m, p, interp.NewMemory(), coherence.NewSystem(m.Chips, m.Mem))
	if err != nil {
		return nil, err
	}
	if err := s.decodeCore(r, ver); err != nil {
		return nil, err
	}
	s.mem.DecodeSnap(r)
	s.msys.DecodeSnap(r)
	if err := r.Err(); err != nil {
		if errors.Is(err, snap.ErrTruncated) {
			return nil, fmt.Errorf("core: snapshot payload: %w", err)
		}
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, r.Remaining())
	}
	s.resumable = true
	return s, nil
}

// Fork returns an independent copy of a paused simulator running the
// same program. Bulk state — interp memory pages and cache tag arrays —
// is shared copy-on-write with the parent; everything else is copied.
// Both simulators remain fully usable (and resumable) afterwards.
func (s *Simulator) Fork() (*Simulator, error) {
	return s.ForkProgram(s.Program)
}

// ForkProgram clones a paused simulator, rebinding it to program p2:
// the warm-up amortization primitive. p2 must either be (fingerprint-)
// identical to the running program, or share its marked prefix while
// the simulator's state is still prefix-only (PrefixValid) — i.e. the
// machine has so far executed nothing a same-prefix variant would do
// differently. In-flight instructions are re-derived from p2's code at
// their recorded PCs, so the child continues seamlessly into the
// variant's post-prefix code.
func (s *Simulator) ForkProgram(p2 *prog.Program) (*Simulator, error) {
	if err := s.snapshotSupported(); err != nil {
		return nil, err
	}
	if p2 != s.Program && p2.Fingerprint() != s.Program.Fingerprint() {
		k1, ok1 := s.Program.PrefixKey()
		k2, ok2 := p2.PrefixKey()
		if !ok1 || !ok2 || k1 != k2 {
			return nil, fmt.Errorf("%w: programs share no marked prefix", ErrSnapshotMismatch)
		}
		if !s.PrefixValid() {
			return nil, fmt.Errorf("%w: execution ran past the shared prefix (pc high water %d, prefix %d)",
				ErrSnapshotMismatch, s.PCHighWater(), s.Program.PrefixLen)
		}
	}
	w := snap.NewWriter()
	s.encodeCore(w)
	cp, err := newShell(s.Machine, p2, s.mem.Fork(), s.msys.Fork())
	if err != nil {
		return nil, err
	}
	if err := cp.decodeCore(snap.NewReader(w.Bytes()), SnapshotVersion); err != nil {
		// Cannot happen for bytes we just produced; surface rather than
		// hand back a half-decoded simulator.
		return nil, err
	}
	cp.resumable = true
	return cp, nil
}

// ---- core section ----

// encodeCore writes everything except the bulk state (functional
// memory, timing memory system): simulator scalars, the sync
// controller, every cluster (entries, threads, predictors) and the
// sampler. Fork serializes only this section and shares the bulk state
// copy-on-write instead.
func (s *Simulator) encodeCore(w *snap.Writer) {
	w.I64(s.cycle)
	w.U64(s.committed)
	w.U64(s.forwardedLoads)
	w.F64(s.runningAccum)
	w.Int(s.running)
	w.Int(s.finished)
	w.I64(s.ffCycles)
	w.I64(s.parBCycles)
	w.Bool(s.EventDriven)
	w.Bool(s.EventIssue)
	encodeSlots(w, &s.slots)
	s.syncs[0].EncodeSnap(w)
	// v2: the current thread-to-cluster assignment, as each cluster's
	// thread-id list in residence order. Dynamic policies migrate
	// threads, so the freshly built shell's seed placement must be
	// overlaid before the per-cluster sections (which iterate c.threads)
	// can decode.
	tidOf := make(map[*threadCtx]int, len(s.threads))
	for i, t := range s.threads {
		tidOf[t] = i
	}
	for _, c := range s.clusters {
		w.Int(len(c.threads))
		for _, t := range c.threads {
			w.Int(tidOf[t])
		}
	}
	for _, c := range s.clusters {
		c.encodeSnap(w)
	}
	// v2: migration refill state and the allocator's epoch state.
	for _, t := range s.threads {
		w.I64(t.migrateReady)
	}
	if s.alloc == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		a := s.alloc
		w.I64(a.interval)
		w.I64(a.nextAt)
		w.U64(a.epoch)
		w.U64(a.migrations)
		for _, v := range a.prevThreadCommitted {
			w.U64(v)
		}
		for _, v := range a.lastMigrated {
			w.I64(v)
		}
		for i := range a.prevChipMem {
			m := &a.prevChipMem[i]
			w.U64(m.Loads)
			w.U64(m.Stores)
			w.U64(m.LoadRetries)
			w.U64(m.L1Hits)
			w.U64(m.L1Misses)
			w.U64(m.L2Hits)
			w.U64(m.L2Misses)
			w.Int(m.MSHROccupancy)
			w.Int(m.DirLines)
		}
	}
	if s.obs != nil {
		w.Bool(true)
		s.encodeSampler(w)
	} else {
		w.Bool(false)
	}
}

// decodeCore overlays a core section onto a freshly built shell. ver
// is the payload's format version (Restore's header; forks always use
// the current version).
func (s *Simulator) decodeCore(r *snap.Reader, ver uint32) error {
	s.cycle = r.I64()
	s.committed = r.U64()
	s.forwardedLoads = r.U64()
	s.runningAccum = r.F64()
	s.running = r.Int()
	s.finished = r.Int()
	s.ffCycles = r.I64()
	s.parBCycles = r.I64()
	s.EventDriven = r.Bool()
	s.EventIssue = r.Bool()
	decodeSlots(r, &s.slots)
	s.syncs[0].DecodeSnap(r)
	if s.finished < 0 || s.finished > len(s.threads) || s.running < 0 || s.running > len(s.threads) {
		return fmt.Errorf("%w: thread accounting out of range", ErrSnapshotCorrupt)
	}
	if ver >= 2 {
		if err := s.decodeAssignment(r); err != nil {
			return err
		}
	}
	for _, c := range s.clusters {
		if err := c.decodeSnap(r, s.Program, ver); err != nil {
			return err
		}
	}
	if ver >= 2 {
		for _, t := range s.threads {
			t.migrateReady = r.I64()
		}
		hasAlloc := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if hasAlloc != (s.alloc != nil) {
			return fmt.Errorf("%w: allocator state presence disagrees with machine policy", ErrSnapshotCorrupt)
		}
		if hasAlloc {
			a := s.alloc
			a.interval = r.I64()
			a.nextAt = r.I64()
			a.epoch = r.U64()
			a.migrations = r.U64()
			for i := range a.prevThreadCommitted {
				a.prevThreadCommitted[i] = r.U64()
			}
			for i := range a.lastMigrated {
				a.lastMigrated[i] = r.I64()
			}
			for i := range a.prevChipMem {
				m := &a.prevChipMem[i]
				m.Loads = r.U64()
				m.Stores = r.U64()
				m.LoadRetries = r.U64()
				m.L1Hits = r.U64()
				m.L1Misses = r.U64()
				m.L2Hits = r.U64()
				m.L2Misses = r.U64()
				m.MSHROccupancy = r.Int()
				m.DirLines = r.Int()
			}
			if r.Err() == nil && a.interval <= 0 {
				return fmt.Errorf("%w: allocator epoch interval %d", ErrSnapshotCorrupt, a.interval)
			}
		}
	}
	if r.Bool() {
		if err := s.decodeSampler(r); err != nil {
			return err
		}
	}
	if err := r.Err(); err != nil {
		if errors.Is(err, snap.ErrTruncated) {
			return fmt.Errorf("core: snapshot payload: %w", err)
		}
		return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	// With thread state fully decoded, enforce the capacity invariant
	// the residence-list pass deferred: live (unfinished) threads never
	// exceed a cluster's hardware contexts.
	for ci, cl := range s.clusters {
		live := 0
		for _, t := range cl.threads {
			if !t.done() {
				live++
			}
		}
		if live > cl.cfg.ThreadsPerCluster {
			return fmt.Errorf("%w: cluster %d holds %d live threads (capacity %d)", ErrSnapshotCorrupt, ci, live, cl.cfg.ThreadsPerCluster)
		}
	}
	return nil
}

// decodeAssignment reads each cluster's thread-id residence list (v2)
// and re-homes the shell's threads to match the encoded placement, so
// the per-cluster sections that follow iterate the same thread order
// the encoder did.
func (s *Simulator) decodeAssignment(r *snap.Reader) error {
	seen := make([]bool, len(s.threads))
	lists := make([][]int, len(s.clusters))
	for ci := range s.clusters {
		n := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		// Residence lists include finished threads, which stay on the
		// cluster that retired them, so a cluster that absorbed
		// migrations can legally list more threads than it has hardware
		// contexts. Only the total is bounded here; the live-thread
		// capacity invariant is checked after per-thread state decodes.
		if n < 0 || n > len(s.threads) {
			return fmt.Errorf("%w: cluster %d residence list holds %d of %d threads", ErrSnapshotCorrupt, ci, n, len(s.threads))
		}
		list := make([]int, n)
		for i := range list {
			tid := r.Int()
			if r.Err() != nil {
				return r.Err()
			}
			if tid < 0 || tid >= len(s.threads) || seen[tid] {
				return fmt.Errorf("%w: thread id %d in cluster %d residence list", ErrSnapshotCorrupt, tid, ci)
			}
			seen[tid] = true
			list[i] = tid
		}
		lists[ci] = list
	}
	for tid, ok := range seen {
		if !ok {
			return fmt.Errorf("%w: residence lists omit thread %d", ErrSnapshotCorrupt, tid)
		}
	}
	for ci, cl := range s.clusters {
		cl.threads = cl.threads[:0]
		for _, tid := range lists[ci] {
			t := s.threads[tid]
			t.cluster = cl
			t.chip = cl.chip
			cl.threads = append(cl.threads, t)
		}
	}
	return nil
}

func encodeSlots(w *snap.Writer, sl *stats.Slots) {
	for _, v := range sl.Counts {
		w.F64(v)
	}
	w.I64(sl.Cycles)
}

func decodeSlots(r *snap.Reader, sl *stats.Slots) {
	for i := range sl.Counts {
		sl.Counts[i] = r.F64()
	}
	sl.Cycles = r.I64()
}

// ---- sampler ----

// encodeSampler writes the metrics configuration, the previous-boundary
// counter snapshot and the frame ring, so a restored run's frames
// continue tiling the cycle axis exactly where the original's left off.
// The OnInterval callback is host state and is not serialized; callers
// re-register after Restore/Fork.
func (s *Simulator) encodeSampler(w *snap.Writer) {
	o := s.obs
	w.I64(o.interval)
	w.I64(o.nextAt)
	w.Int(o.index)
	w.I64(o.prevCycle)
	w.U64(o.prevCommitted)
	w.F64(o.prevRunningAccum)
	for _, v := range o.prevSlots {
		w.F64(v)
	}
	for i := range o.prevCluster {
		for _, v := range o.prevCluster[i] {
			w.F64(v)
		}
	}
	m := &o.prevMem
	w.U64(m.Loads)
	w.U64(m.Stores)
	w.U64(m.LoadRetries)
	w.U64(m.L1Hits)
	w.U64(m.L1Misses)
	w.U64(m.L2Hits)
	w.U64(m.L2Misses)
	w.Int(m.MSHROccupancy)
	w.Int(m.DirLines)
	w.Int(o.ring.Cap())
	o.ring.EncodeSnap(w)
}

func (s *Simulator) decodeSampler(r *snap.Reader) error {
	interval := r.I64()
	if r.Err() != nil {
		return r.Err()
	}
	if interval <= 0 {
		return fmt.Errorf("%w: sampler interval %d", ErrSnapshotCorrupt, interval)
	}
	nextAt := r.I64()
	index := r.Int()
	prevCycle := r.I64()
	prevCommitted := r.U64()
	prevRunningAccum := r.F64()
	var prevSlots [stats.NumCategories]float64
	for i := range prevSlots {
		prevSlots[i] = r.F64()
	}
	ringCap := 0
	o := &sampler{prevCluster: make([][stats.NumCategories]float64, len(s.clusters))}
	for i := range o.prevCluster {
		for j := range o.prevCluster[i] {
			o.prevCluster[i][j] = r.F64()
		}
	}
	m := &o.prevMem
	m.Loads = r.U64()
	m.Stores = r.U64()
	m.LoadRetries = r.U64()
	m.L1Hits = r.U64()
	m.L1Misses = r.U64()
	m.L2Hits = r.U64()
	m.L2Misses = r.U64()
	m.MSHROccupancy = r.Int()
	m.DirLines = r.Int()
	ringCap = r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if ringCap <= 0 || ringCap > maxSnapshotRingCap {
		return fmt.Errorf("%w: sampler ring capacity %d", ErrSnapshotCorrupt, ringCap)
	}
	o.interval = interval
	o.nextAt = nextAt
	o.index = index
	o.prevCycle = prevCycle
	o.prevCommitted = prevCommitted
	o.prevRunningAccum = prevRunningAccum
	o.prevSlots = prevSlots
	o.ring = obs.NewRing(ringCap)
	o.ring.DecodeSnap(r)
	if r.Err() != nil {
		return r.Err()
	}
	s.obs = o
	return nil
}

// ---- cluster section ----

// entryUniverse enumerates every entry reachable through a live handle
// from the cluster's structures in a deterministic order and assigns
// each an index. Roots are visited in a fixed order (window, per-thread
// state, the wakeup structures), then the worklist closes over the
// entries' own handles; committed-and-swept entries whose slot is not
// yet reused are therefore included, while retired handles reach
// nothing and encode as nil — which is how they read. list holds the
// universe's pool slots in index order; idx maps a slot to its index
// plus one (0 = not in the universe).
func (c *cluster) entryUniverse() (list, idx []int32) {
	idx = make([]int32, len(c.pool))
	add := func(h handle) {
		if c.live(h) == nil || idx[h.slot] != 0 {
			return
		}
		list = append(list, h.slot)
		idx[h.slot] = int32(len(list))
	}
	for _, h := range c.window {
		add(h)
	}
	for _, t := range c.threads {
		for i := t.fifoHead; i < len(t.fifo); i++ {
			add(t.fifo[i])
		}
		add(t.pendingBranch)
		for _, h := range t.lastWriterInt {
			add(h)
		}
		for _, h := range t.lastWriterFP {
			add(h)
		}
		for _, a := range sortedStoreAddrs(t.lastStore) {
			add(t.lastStore[a])
		}
	}
	for i := c.pendingHead; i < len(c.pending); i++ {
		add(c.pending[i])
	}
	for _, h := range c.ready {
		add(h)
	}
	for _, wk := range c.sortedWakeups() {
		add(wk.e)
	}
	for i := 0; i < len(list); i++ {
		e := &c.pool[list[i]]
		add(e.producers[0])
		add(e.producers[1])
		add(e.fwdStore)
		add(e.firstCons)
		add(e.consNext[0])
		add(e.consNext[1])
	}
	return list, idx
}

func sortedStoreAddrs(m map[int64]handle) []int64 {
	if len(m) == 0 {
		return nil
	}
	addrs := make([]int64, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// sortedWakeups returns the wheel's live wakeups in canonical order, by
// cycle then seq: the heap's layout depends on push history, and the
// order of same-cycle wakeups is unobservable (wakeup.go). Stale
// (retired) wakeups are dropped, as a pop would drop them.
func (c *cluster) sortedWakeups() []wakeup {
	ws := make([]wakeup, 0, len(c.wheel))
	for _, wk := range c.wheel {
		if c.live(wk.e) != nil {
			ws = append(ws, wk)
		}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].cycle != ws[j].cycle {
			return ws[i].cycle < ws[j].cycle
		}
		return ws[i].e.seq < ws[j].e.seq
	})
	return ws
}

// entryRef encodes a handle as its universe index (-1 = nil or retired).
func (c *cluster) entryRef(w *snap.Writer, idx []int32, h handle) {
	if c.live(h) == nil {
		w.Int(-1)
		return
	}
	w.Int(int(idx[h.slot]) - 1)
}

func (c *cluster) encodeSnap(w *snap.Writer) {
	// Scalars and fixed-size structures first.
	w.U64(c.seq)
	w.Int(c.iqCount)
	w.Int(c.zombies)
	w.Int(c.renameIntFree)
	w.Int(c.renameFPFree)
	for _, us := range [][]int64{c.intUnits, c.ldstUnits, c.fpUnits} {
		for _, v := range us {
			w.I64(v)
		}
	}
	for _, v := range c.minFree {
		w.I64(v)
	}
	w.Int(c.waitMemN)
	w.Int(c.waitDataN)
	w.Bool(c.icount)
	w.Int(c.fetchRR)
	w.I64(int64(c.commitRR))
	encodeSlots(w, &c.slots)
	w.U64(c.renameStalls)
	w.U64(c.fetchGroups)
	w.U64(c.windowFullStalls)
	w.I64(c.pcHighWater)
	for _, v := range c.bp.counters {
		w.U8(v)
	}
	w.U64(c.bp.Lookups)
	w.U64(c.bp.Mispred)
	for _, v := range c.btb.targets {
		w.I64(v)
	}
	for _, v := range c.btb.valid {
		w.Bool(v)
	}
	w.U64(c.btb.Lookups)
	w.U64(c.btb.Mispred)

	// The entry universe.
	list, idx := c.entryUniverse()
	w.Int(len(list))
	for _, slot := range list {
		e := &c.pool[slot]
		w.U64(e.d.Seq)
		w.I64(e.d.PC)
		w.I64(e.d.Addr)
		w.Bool(e.d.Taken)
		w.I64(e.d.Target)
		ti := 0
		for i, t := range c.threads {
			if t.id == int(e.thread) {
				ti = i
				break
			}
		}
		w.Int(ti)
		w.U64(e.seq)
		w.U8(uint8(e.state))
		w.I64(e.fetchedAt)
		w.I64(e.eligibleAt)
		w.I64(e.completeAt)
		w.U8(uint8(e.fuCl))
		w.I64(e.lat)
		w.I64(e.occ)
		w.Bool(e.isLoad)
		w.Bool(e.isStore)
		w.Bool(e.isBranch)
		w.Bool(e.mispredicted)
		w.Bool(e.usesIntRename)
		w.Bool(e.usesFPRename)
		w.Bool(e.forwarded)
		w.Bool(e.committed)
		w.U8(uint8(e.memClass))
		w.U8(e.queued)
		w.Bool(e.waitMem)
		c.entryRef(w, idx, e.producers[0])
		c.entryRef(w, idx, e.producers[1])
		c.entryRef(w, idx, e.fwdStore)
		c.entryRef(w, idx, e.firstCons)
		c.entryRef(w, idx, e.consNext[0])
		c.entryRef(w, idx, e.consNext[1])
	}

	// Window (in order; includes committed zombies awaiting the sweep).
	w.Int(len(c.window))
	for _, h := range c.window {
		c.entryRef(w, idx, h)
	}

	// Per-thread front-end state.
	for _, t := range c.threads {
		w.U8(uint8(t.block))
		w.Bool(t.lockGranted)
		w.Bool(t.barArrived)
		w.U64(t.barTarget)
		w.I64(t.frontEvent)
		w.U64(t.fetched)
		w.U64(t.committed)
		w.Int(t.inWindow)
		c.entryRef(w, idx, t.pendingBranch)
		for _, h := range t.lastWriterInt {
			c.entryRef(w, idx, h)
		}
		for _, h := range t.lastWriterFP {
			c.entryRef(w, idx, h)
		}
		addrs := sortedStoreAddrs(t.lastStore)
		w.Int(len(addrs))
		for _, a := range addrs {
			w.I64(a)
			c.entryRef(w, idx, t.lastStore[a])
		}
		w.Int(t.fifoLen())
		for i := t.fifoHead; i < len(t.fifo); i++ {
			c.entryRef(w, idx, t.fifo[i])
		}
		t.fn.EncodeArch(w)
	}

	// Wakeup structures.
	w.Int(len(c.pending) - c.pendingHead)
	for i := c.pendingHead; i < len(c.pending); i++ {
		c.entryRef(w, idx, c.pending[i])
	}
	w.Int(len(c.ready))
	for _, h := range c.ready {
		c.entryRef(w, idx, h)
	}
	// The wheel, as one bucket of wakeups per pending cycle.
	ws := c.sortedWakeups()
	buckets := 0
	for i := range ws {
		if i == 0 || ws[i].cycle != ws[i-1].cycle {
			buckets++
		}
	}
	w.Int(buckets)
	for i := 0; i < len(ws); {
		j := i
		for j < len(ws) && ws[j].cycle == ws[i].cycle {
			j++
		}
		w.I64(ws[i].cycle)
		w.Int(j - i)
		for _, wk := range ws[i:j] {
			c.entryRef(w, idx, wk.e)
		}
		i = j
	}
}

// decodeSnap overlays an encoded cluster onto a freshly built one for
// the same configuration, rebuilding the entry pool from the universe:
// entry i takes slot i+1, and the slots of entries outside the window
// (committed and swept, still referenced) start on the free list. p
// supplies the static code the entries' instruction
// words are re-derived from.
func (c *cluster) decodeSnap(r *snap.Reader, p *prog.Program, ver uint32) error {
	c.seq = r.U64()
	c.iqCount = r.Int()
	c.zombies = r.Int()
	c.renameIntFree = r.Int()
	c.renameFPFree = r.Int()
	for _, us := range [][]int64{c.intUnits, c.ldstUnits, c.fpUnits} {
		for i := range us {
			us[i] = r.I64()
		}
	}
	for i := range c.minFree {
		c.minFree[i] = r.I64()
	}
	c.waitMemN = r.Int()
	c.waitDataN = r.Int()
	c.icount = r.Bool()
	c.fetchRR = r.Int()
	c.commitRR = int(r.I64())
	decodeSlots(r, &c.slots)
	c.renameStalls = r.U64()
	c.fetchGroups = r.U64()
	c.windowFullStalls = r.U64()
	c.pcHighWater = r.I64()
	for i := range c.bp.counters {
		c.bp.counters[i] = r.U8()
	}
	c.bp.Lookups = r.U64()
	c.bp.Mispred = r.U64()
	for i := range c.btb.targets {
		c.btb.targets[i] = r.I64()
	}
	for i := range c.btb.valid {
		c.btb.valid[i] = r.Bool()
	}
	c.btb.Lookups = r.U64()
	c.btb.Mispred = r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if n := len(c.threads); c.fetchRR < 0 || (n > 0 && c.fetchRR >= n) {
		return fmt.Errorf("%w: fetch round-robin %d out of range", ErrSnapshotCorrupt, c.fetchRR)
	}

	// Entry universe: fields first, then handle wiring.
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n < 0 || n > r.Remaining() {
		return fmt.Errorf("%w: entry count %d", ErrSnapshotCorrupt, n)
	}
	c.pool = make([]entry, n+1)
	c.pool[0].seq = nilSeq
	refs := make([][6]int, n)
	for i := range refs {
		e := &c.pool[i+1]
		e.slot = int32(i + 1)
		e.d.Seq = r.U64()
		e.d.PC = r.I64()
		e.d.Addr = r.I64()
		e.d.Taken = r.Bool()
		e.d.Target = r.I64()
		ti := r.Int()
		e.seq = r.U64()
		state := r.U8()
		e.fetchedAt = r.I64()
		e.eligibleAt = r.I64()
		e.completeAt = r.I64()
		fuCl := r.U8()
		e.lat = r.I64()
		e.occ = r.I64()
		e.isLoad = r.Bool()
		e.isStore = r.Bool()
		e.isBranch = r.Bool()
		e.mispredicted = r.Bool()
		e.usesIntRename = r.Bool()
		e.usesFPRename = r.Bool()
		e.forwarded = r.Bool()
		e.committed = r.Bool()
		memClass := r.U8()
		e.queued = r.U8()
		e.waitMem = r.Bool()
		for k := 0; k < 6; k++ {
			refs[i][k] = r.Int()
		}
		if r.Err() != nil {
			return r.Err()
		}
		if e.d.PC < 0 || e.d.PC >= int64(len(p.Code)) {
			return fmt.Errorf("%w: entry PC %d outside program", ErrSnapshotCorrupt, e.d.PC)
		}
		e.d.Instr = p.Code[e.d.PC]
		if ti < 0 || ti >= len(c.threads) {
			return fmt.Errorf("%w: entry thread index %d", ErrSnapshotCorrupt, ti)
		}
		e.thread = int32(c.threads[ti].id)
		if state > uint8(stateCompleted) {
			return fmt.Errorf("%w: entry state %d", ErrSnapshotCorrupt, state)
		}
		e.state = entryState(state)
		if fuCl > uint8(isa.ClassFP) {
			return fmt.Errorf("%w: functional-unit class %d", ErrSnapshotCorrupt, fuCl)
		}
		e.fuCl = isa.Class(fuCl)
		if memClass >= uint8(coherence.NumAccessClasses) {
			return fmt.Errorf("%w: memory access class %d", ErrSnapshotCorrupt, memClass)
		}
		e.memClass = coherence.AccessClass(memClass)
		if e.queued > qReady {
			return fmt.Errorf("%w: entry queue state %d", ErrSnapshotCorrupt, e.queued)
		}
	}
	ent := func(i int) (handle, error) {
		if i == -1 {
			return handle{}, nil
		}
		if i < 0 || i >= n {
			return handle{}, fmt.Errorf("%w: entry reference %d of %d", ErrSnapshotCorrupt, i, n)
		}
		return c.pool[i+1].ref(), nil
	}
	// member resolves a reference that must name a window entry (the
	// fifo, pending and ready lists are subsets of the window).
	inWindow := make([]bool, n+1)
	member := func(i int, what string) (handle, error) {
		h, err := ent(i)
		if err == nil && !inWindow[h.slot] {
			err = fmt.Errorf("%w: %s slot outside the window", ErrSnapshotCorrupt, what)
		}
		return h, err
	}
	var err error
	wire := func(dst *handle, i int) {
		if err == nil {
			*dst, err = ent(i)
		}
	}
	for i := range refs {
		e := &c.pool[i+1]
		wire(&e.producers[0], refs[i][0])
		wire(&e.producers[1], refs[i][1])
		wire(&e.fwdStore, refs[i][2])
		wire(&e.firstCons, refs[i][3])
		wire(&e.consNext[0], refs[i][4])
		wire(&e.consNext[1], refs[i][5])
	}
	if err != nil {
		return err
	}

	// Window.
	wn := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if wn < 0 || wn > n {
		return fmt.Errorf("%w: window length %d of %d entries", ErrSnapshotCorrupt, wn, n)
	}
	c.window = make([]handle, wn)
	for i := range c.window {
		h, werr := ent(r.Int())
		if werr != nil {
			return werr
		}
		if h.isNil() || inWindow[h.slot] {
			return fmt.Errorf("%w: nil or repeated window slot", ErrSnapshotCorrupt)
		}
		inWindow[h.slot] = true
		c.window[i] = h
	}
	if c.zombies < 0 || c.zombies > wn {
		return fmt.Errorf("%w: zombie count %d of window %d", ErrSnapshotCorrupt, c.zombies, wn)
	}
	c.free = nil
	for slot := int32(1); slot <= int32(n); slot++ {
		if !inWindow[slot] {
			c.free = append(c.free, slot)
		}
	}

	// Per-thread front-end state.
	for _, t := range c.threads {
		block := r.U8()
		t.lockGranted = r.Bool()
		t.barArrived = r.Bool()
		t.barTarget = r.U64()
		t.frontEvent = r.I64()
		t.fetched = r.U64()
		t.committed = r.U64()
		t.inWindow = r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		maxBlock := uint8(blockMigrate)
		if ver < 2 {
			// v1 predates migration; its payloads can never hold the state.
			maxBlock = uint8(blockBarrier)
		}
		if block > maxBlock {
			return fmt.Errorf("%w: thread block state %d", ErrSnapshotCorrupt, block)
		}
		t.block = blockReason(block)
		pb, perr := ent(r.Int())
		if perr != nil {
			return perr
		}
		t.pendingBranch = pb
		for i := range t.lastWriterInt {
			if t.lastWriterInt[i], err = ent(r.Int()); err != nil {
				return err
			}
		}
		for i := range t.lastWriterFP {
			if t.lastWriterFP[i], err = ent(r.Int()); err != nil {
				return err
			}
		}
		ls := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if ls < 0 || ls > n {
			return fmt.Errorf("%w: store map size %d", ErrSnapshotCorrupt, ls)
		}
		t.lastStore = nil
		if ls > 0 {
			t.lastStore = make(map[int64]handle, ls)
			for i := 0; i < ls; i++ {
				a := r.I64()
				h, serr := ent(r.Int())
				if serr != nil {
					return serr
				}
				if h.isNil() {
					return fmt.Errorf("%w: nil store-map entry", ErrSnapshotCorrupt)
				}
				t.lastStore[a] = h
			}
		}
		fl := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if fl < 0 || fl > n {
			return fmt.Errorf("%w: fifo length %d", ErrSnapshotCorrupt, fl)
		}
		t.fifo = make([]handle, fl)
		t.fifoHead = 0
		for i := range t.fifo {
			if t.fifo[i], err = member(r.Int(), "fifo"); err != nil {
				return err
			}
		}
		t.fn.DecodeArch(r)
		if r.Err() != nil {
			return r.Err()
		}
	}

	// Wakeup structures. The wheel is rebuilt by pushing every wakeup;
	// only its cycles order the pops.
	pn := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if pn < 0 || pn > n {
		return fmt.Errorf("%w: pending length %d", ErrSnapshotCorrupt, pn)
	}
	c.pending = make([]handle, pn)
	c.pendingHead = 0
	for i := range c.pending {
		if c.pending[i], err = member(r.Int(), "pending"); err != nil {
			return err
		}
	}
	rn := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if rn < 0 || rn > n {
		return fmt.Errorf("%w: ready length %d", ErrSnapshotCorrupt, rn)
	}
	c.ready = make([]handle, rn)
	for i := range c.ready {
		if c.ready[i], err = member(r.Int(), "ready"); err != nil {
			return err
		}
	}
	bn := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if bn < 0 || bn > r.Remaining() {
		return fmt.Errorf("%w: wheel bucket count %d", ErrSnapshotCorrupt, bn)
	}
	c.wheel = nil
	for i := 0; i < bn; i++ {
		cy := r.I64()
		bl := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if bl <= 0 || bl > n {
			return fmt.Errorf("%w: wheel bucket length %d", ErrSnapshotCorrupt, bl)
		}
		for j := 0; j < bl; j++ {
			h, berr := ent(r.Int())
			if berr != nil {
				return berr
			}
			if h.isNil() {
				return fmt.Errorf("%w: nil wheel slot", ErrSnapshotCorrupt)
			}
			c.wheel.push(cy, h)
		}
	}
	return r.Err()
}
