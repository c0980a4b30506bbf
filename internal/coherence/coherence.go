// Package coherence implements the machine-wide shared-memory timing
// model: every chip's hierarchy (package memsys) glued together by a
// DASH-like bit-vector directory (Fig. 3) over the interconnect. It is
// a latency/contention model with MSI states — protocol transients
// (races between simultaneous misses) are resolved instantly in
// simulator order, which is the appropriate fidelity for reproducing
// the paper's cycle counts, not a protocol-verification artifact.
package coherence

import (
	"fmt"

	"clustersmt/internal/config"
	"clustersmt/internal/interconnect"
	"clustersmt/internal/memsys"
)

// AccessClass classifies where a load was satisfied (Table 3 rows).
type AccessClass uint8

// Access classes, in increasing typical latency.
const (
	L1Hit AccessClass = iota
	MSHRMerge
	L2Hit
	LocalMem
	RemoteMem
	RemoteL2
	NumAccessClasses
)

func (a AccessClass) String() string {
	switch a {
	case L1Hit:
		return "L1 hit"
	case MSHRMerge:
		return "MSHR merge"
	case L2Hit:
		return "L2 hit"
	case LocalMem:
		return "local memory"
	case RemoteMem:
		return "remote memory"
	case RemoteL2:
		return "remote L2"
	}
	return fmt.Sprintf("AccessClass(%d)", uint8(a))
}

const noOwner = -1

type dirEntry struct {
	sharers uint32 // bit per chip
	owner   int8   // chip holding Modified, or noOwner
}

// dirSlot states for the open-addressed table.
const (
	slotEmpty uint8 = iota
	slotFull
	slotDead // tombstone: deleted, but probe chains pass through
)

// dirSlot is one inline table entry: the line key, the entry itself
// (no per-line allocation, no pointer chase), and the slot state.
type dirSlot struct {
	line  int64
	e     dirEntry
	state uint8
}

const dirMinSlots = 256

// Directory is the full-map bit-vector directory. Lines are homed by
// page interleaving across chips.
//
// Tracked lines live in an open-addressed linear-probe table with
// inline entries; entries whose sharer set and owner both empty out are
// deleted (tombstoned), so Lines() counts exactly the lines some chip
// caches — the same delete-when-empty semantics the original
// map[int64]*dirEntry had. That map is kept behind the reference flag
// as the differential baseline (see System.SetReferencePaths).
type Directory struct {
	nchips    int
	pageBytes int64

	ref     bool                // use the reference map representation
	entries map[int64]*dirEntry // reference representation

	slots     []dirSlot // fast representation; len is a power of two
	hashShift uint      // 64 - log2(len(slots))
	live      int       // slots in state slotFull
	dead      int       // tombstones awaiting the next rehash

	Invalidations uint64 // remote copies invalidated by exclusive fetches
	Downgrades    uint64 // remote Modified copies demoted by read fetches
	Writebacks    uint64 // dirty evictions returned to memory
	ThreeHops     uint64 // dirty-remote interventions
}

// NewDirectory returns an empty directory for n chips.
func NewDirectory(nchips int, pageBytes int64) *Directory {
	if nchips <= 0 || nchips > 32 {
		panic(fmt.Sprintf("coherence: unsupported chip count %d", nchips))
	}
	d := &Directory{nchips: nchips, pageBytes: pageBytes, entries: make(map[int64]*dirEntry)}
	d.initTable(dirMinSlots)
	return d
}

func (d *Directory) initTable(n int) {
	d.slots = make([]dirSlot, n)
	d.hashShift = 64
	for ; n > 1; n >>= 1 {
		d.hashShift--
	}
	d.live, d.dead = 0, 0
}

// Home returns the home chip of a line (page-interleaved, Fig. 3: each
// node owns a portion of global memory and its directory slice).
func (d *Directory) Home(line int64) int {
	return int((line / d.pageBytes) % int64(d.nchips))
}

// hashIndex spreads line addresses (which share low zero bits and
// cluster by page) over the table with a Fibonacci multiplicative hash.
func (d *Directory) hashIndex(line int64) int {
	return int((uint64(line) * 0x9E3779B97F4A7C15) >> d.hashShift)
}

// find probes for line. found=true gives the slot holding it; otherwise
// idx is where an insertion belongs (the first tombstone crossed, or
// the empty slot ending the chain).
func (d *Directory) find(line int64) (idx int, found bool) {
	mask := len(d.slots) - 1
	i := d.hashIndex(line)
	firstDead := -1
	for {
		s := &d.slots[i]
		switch s.state {
		case slotEmpty:
			if firstDead >= 0 {
				return firstDead, false
			}
			return i, false
		case slotFull:
			if s.line == line {
				return i, true
			}
		case slotDead:
			if firstDead < 0 {
				firstDead = i
			}
		}
		i = (i + 1) & mask
	}
}

// grow rehashes into a table sized for the live population, clearing
// tombstones.
func (d *Directory) grow() {
	old := d.slots
	n := len(old) * 2
	// If the table is mostly tombstones, rehashing at the same size
	// reclaims them without doubling.
	if d.live*4 < len(old) {
		n = len(old)
	}
	d.initTable(n)
	for i := range old {
		if old[i].state != slotFull {
			continue
		}
		idx, _ := d.find(old[i].line)
		d.slots[idx] = old[i]
		d.live++
	}
}

// entry returns the tracked entry for line, creating it if needed.
// The pointer is stable only until the next entry() call (an insertion
// may rehash); callers finish with it before touching another line.
func (d *Directory) entry(line int64) *dirEntry {
	if d.ref {
		e := d.entries[line]
		if e == nil {
			e = &dirEntry{owner: noOwner}
			d.entries[line] = e
		}
		return e
	}
	idx, found := d.find(line)
	if !found {
		if (d.live+d.dead)*4 >= len(d.slots)*3 {
			d.grow()
			idx, _ = d.find(line)
		}
		s := &d.slots[idx]
		if s.state == slotDead {
			d.dead--
		}
		*s = dirSlot{line: line, e: dirEntry{owner: noOwner}, state: slotFull}
		d.live++
		return &s.e
	}
	return &d.slots[idx].e
}

// DropSharer records that chip no longer caches line (eviction). If the
// chip owned the line dirty, the eviction is a writeback.
func (d *Directory) DropSharer(chip int, line int64) {
	if d.ref {
		e := d.entries[line]
		if e == nil {
			return
		}
		e.sharers &^= 1 << uint(chip)
		if int(e.owner) == chip {
			e.owner = noOwner
			d.Writebacks++
		}
		if e.sharers == 0 && e.owner == noOwner {
			delete(d.entries, line)
		}
		return
	}
	idx, found := d.find(line)
	if !found {
		return
	}
	e := &d.slots[idx].e
	e.sharers &^= 1 << uint(chip)
	if int(e.owner) == chip {
		e.owner = noOwner
		d.Writebacks++
	}
	if e.sharers == 0 && e.owner == noOwner {
		d.slots[idx].state = slotDead
		d.live--
		d.dead++
	}
}

// Sharers returns the sharer set and owner of a line (testing aid).
func (d *Directory) Sharers(line int64) (mask uint32, owner int) {
	if d.ref {
		e := d.entries[line]
		if e == nil {
			return 0, noOwner
		}
		return e.sharers, int(e.owner)
	}
	idx, found := d.find(line)
	if !found {
		return 0, noOwner
	}
	e := &d.slots[idx].e
	return e.sharers, int(e.owner)
}

// Lines returns the number of tracked lines (testing aid).
func (d *Directory) Lines() int {
	if d.ref {
		return len(d.entries)
	}
	return d.live
}

// Stats aggregates machine-wide memory statistics.
type Stats struct {
	Loads       uint64
	Stores      uint64
	LoadRetries uint64 // loads refused because the MSHR file was full
	ByClass     [NumAccessClasses]uint64
	// LatencyByClass accumulates (ready - request) cycles per class,
	// so LatencyByClass[c]/ByClass[c] is the observed average latency
	// including all queuing effects.
	LatencyByClass [NumAccessClasses]uint64
	StoreHits      uint64 // stores finding the line already Modified
	StoreUpgrade   uint64 // stores upgrading Shared -> Modified
	StoreMisses    uint64 // stores fetching the line exclusively
	TLBMisses      uint64
}

// System is the machine-wide memory model the pipeline talks to.
type System struct {
	Cfg   config.MemConfig
	Chips []*memsys.Chip
	Dir   *Directory
	Net   *interconnect.Network
	Stats Stats

	// refPaths selects the pre-optimization load path (separate L1
	// probe and lookup walks); set via SetReferencePaths.
	refPaths bool
}

// NewSystem builds the memory system for nchips identical chips.
func NewSystem(nchips int, cfg config.MemConfig) *System {
	chips := make([]*memsys.Chip, nchips)
	for i := range chips {
		chips[i] = memsys.NewChip(i, cfg)
	}
	return &System{
		Cfg:   cfg,
		Chips: chips,
		Dir:   NewDirectory(nchips, int64(cfg.PageBytes)),
		Net:   interconnect.New(nchips, cfg.NetOccupancy),
	}
}

// SetReferencePaths selects (on=true) the pre-optimization reference
// implementations of every per-access structure on the Load/Store
// path: the MSHR map-sweep retirement, the directory's
// map-of-pointers representation, and the probe-then-lookup double
// walk in Load. Results are bit-identical either way (guarded by
// TestMemPathDifferential); the reference exists as the differential
// baseline and escape hatch. Must be called before any traffic.
func (s *System) SetReferencePaths(on bool) {
	s.refPaths = on
	s.Dir.ref = on
	for _, c := range s.Chips {
		c.MSHR.Reference = on
	}
}

// translate applies the TLB; it returns the earliest cycle the access
// can proceed (after any miss penalty).
func (s *System) translate(now int64, c *memsys.Chip, addr int64) int64 {
	if !c.TLB.Access(c.Page(addr)) {
		c.TLBMissStalls++
		s.Stats.TLBMisses++
		return now + int64(s.Cfg.TLBMissPenalty)
	}
	return now
}

// Load times a load by chip to addr issued at cycle now. It returns the
// cycle the data is available and the access class. ok=false means the
// MSHR file was full and the load must retry on a later cycle (no state
// was disturbed).
//
// The L1 set is walked once: FindWay answers the early MSHR gate, and
// on a hit TouchHit replays the LRU/stat effects of the lookup the
// reference path performs separately.
func (s *System) Load(now int64, chip int, addr int64) (ready int64, cls AccessClass, ok bool) {
	if s.refPaths {
		return s.loadRef(now, chip, addr)
	}
	c := s.Chips[chip]
	line := c.Line(addr)
	st := &s.Stats

	// Refuse early (before disturbing banks/stats) if this would need a
	// new MSHR and none is free.
	wi := c.L1.FindWay(line)
	if wi < 0 {
		if _, merging := c.MSHR.Pending(now, line); !merging && c.MSHR.Free(now) == 0 {
			st.LoadRetries++
			return 0, 0, false
		}
	}

	st.Loads++
	t := s.translate(now, c, addr)

	// Merge with an in-flight fill for the same line.
	if fill, merging := c.MSHR.Pending(t, line); merging {
		ready = max(fill, t+int64(s.Cfg.L1Latency))
		st.ByClass[MSHRMerge]++
		st.LatencyByClass[MSHRMerge] += uint64(ready - now)
		return ready, MSHRMerge, true
	}

	start := c.L1Banks.Acquire(t, line)
	if wi >= 0 {
		c.L1.TouchHit(wi)
		ready = start + int64(s.Cfg.L1Latency)
		st.ByClass[L1Hit]++
		st.LatencyByClass[L1Hit] += uint64(ready - now)
		return ready, L1Hit, true
	}
	c.L1.TouchMiss()

	// L1 miss: L2 access.
	s2 := c.L2Banks.Acquire(start+int64(s.Cfg.L1Latency), line)
	if lst := c.L2.Lookup(line); lst != memsys.Invalid {
		ready = s2 + int64(s.Cfg.L2Latency)
		c.L1.Insert(line, lst)
		c.L1Banks.Extend(line, s.Cfg.FillTime)
		mustAlloc(c.MSHR, s2, line, ready)
		st.ByClass[L2Hit]++
		st.LatencyByClass[L2Hit] += uint64(ready - now)
		return ready, L2Hit, true
	}

	// L2 miss: directory fetch, shared.
	ready, cls = s.fetch(chip, line, s2, false)
	s.install(chip, line, memsys.Shared)
	mustAlloc(c.MSHR, s2, line, ready)
	st.ByClass[cls]++
	st.LatencyByClass[cls] += uint64(ready - now)
	return ready, cls, true
}

// loadRef is the pre-optimization Load: a Probe for the MSHR gate
// followed by a full Lookup — two set walks on the L1-hit path. Kept
// verbatim as the differential baseline.
func (s *System) loadRef(now int64, chip int, addr int64) (ready int64, cls AccessClass, ok bool) {
	c := s.Chips[chip]
	line := c.Line(addr)
	stc := &s.Stats

	if c.L1.Probe(line) == memsys.Invalid {
		if _, merging := c.MSHR.Pending(now, line); !merging && c.MSHR.Free(now) == 0 {
			stc.LoadRetries++
			return 0, 0, false
		}
	}

	stc.Loads++
	t := s.translate(now, c, addr)

	if fill, merging := c.MSHR.Pending(t, line); merging {
		ready = max(fill, t+int64(s.Cfg.L1Latency))
		stc.ByClass[MSHRMerge]++
		stc.LatencyByClass[MSHRMerge] += uint64(ready - now)
		return ready, MSHRMerge, true
	}

	start := c.L1Banks.Acquire(t, line)
	if st := c.L1.Lookup(line); st != memsys.Invalid {
		ready = start + int64(s.Cfg.L1Latency)
		stc.ByClass[L1Hit]++
		stc.LatencyByClass[L1Hit] += uint64(ready - now)
		return ready, L1Hit, true
	}

	s2 := c.L2Banks.Acquire(start+int64(s.Cfg.L1Latency), line)
	if st := c.L2.Lookup(line); st != memsys.Invalid {
		ready = s2 + int64(s.Cfg.L2Latency)
		c.L1.Insert(line, st)
		c.L1Banks.Extend(line, s.Cfg.FillTime)
		mustAlloc(c.MSHR, s2, line, ready)
		stc.ByClass[L2Hit]++
		stc.LatencyByClass[L2Hit] += uint64(ready - now)
		return ready, L2Hit, true
	}

	ready, cls = s.fetch(chip, line, s2, false)
	s.install(chip, line, memsys.Shared)
	mustAlloc(c.MSHR, s2, line, ready)
	stc.ByClass[cls]++
	stc.LatencyByClass[cls] += uint64(ready - now)
	return ready, cls, true
}

// Store times a store performed at commit. Stores are non-blocking for
// the pipeline (an unbounded store buffer is assumed, documented in
// DESIGN.md); their cost shows up through bank/port occupancy and
// through lines they steal from other chips.
func (s *System) Store(now int64, chip int, addr int64) {
	c := s.Chips[chip]
	line := c.Line(addr)
	st := &s.Stats
	st.Stores++
	t := s.translate(now, c, addr)
	start := c.L1Banks.Acquire(t, line)

	switch c.L1.Lookup(line) {
	case memsys.Modified:
		st.StoreHits++
		return
	case memsys.Shared:
		s.upgrade(chip, line, start)
		c.MarkModified(line)
		st.StoreUpgrade++
		return
	}

	// L1 miss: try L2.
	s2 := c.L2Banks.Acquire(start+int64(s.Cfg.L1Latency), line)
	switch c.L2.Lookup(line) {
	case memsys.Modified:
		c.MarkModified(line) // refills L1
		st.StoreHits++
		return
	case memsys.Shared:
		s.upgrade(chip, line, s2)
		c.MarkModified(line)
		st.StoreUpgrade++
		return
	}

	// Full miss: fetch exclusive.
	s.fetch(chip, line, s2, true)
	s.install(chip, line, memsys.Modified)
	st.StoreMisses++
}

// install places a filled line on chip, handling inclusion victims and
// charging fill occupancy on both levels' banks.
func (s *System) install(chip int, line int64, st memsys.LineState) {
	c := s.Chips[chip]
	res := c.Install(line, st)
	if res.L2Victim.Evicted {
		s.Dir.DropSharer(chip, res.L2Victim.Line)
	}
	c.L1Banks.Extend(line, s.Cfg.FillTime)
	c.L2Banks.Extend(line, s.Cfg.FillTime)
}

// upgrade invalidates every other sharer of a line the chip already
// holds Shared, making the chip the owner.
func (s *System) upgrade(chip int, line int64, now int64) {
	h := s.Dir.Home(line)
	e := s.Dir.entry(line)
	t := s.Net.Transact(now, chip, h)
	for other := 0; other < len(s.Chips); other++ {
		if other == chip || e.sharers&(1<<uint(other)) == 0 {
			continue
		}
		s.Net.Transact(t, h, other)
		s.Chips[other].Invalidate(line)
		s.Dir.Invalidations++
	}
	e.sharers = 1 << uint(chip)
	e.owner = int8(chip)
}

// fetch resolves an L2 miss through the directory, returning the data-
// ready cycle and the Table 3 access class.
func (s *System) fetch(chip int, line int64, now int64, exclusive bool) (int64, AccessClass) {
	h := s.Dir.Home(line)
	e := s.Dir.entry(line)
	start := s.Net.Transact(now, chip, h)

	if e.owner != noOwner && int(e.owner) != chip {
		// Dirty in another chip's hierarchy: 3-hop intervention,
		// Table 3 "remote L2" round trip.
		o := int(e.owner)
		start = s.Net.Transact(start, h, o)
		ready := start + int64(s.Cfg.RemoteL2Lat)
		s.Dir.ThreeHops++
		if exclusive {
			s.Chips[o].Invalidate(line)
			s.Dir.Invalidations++
			e.sharers = 1 << uint(chip)
			e.owner = int8(chip)
		} else {
			s.Chips[o].Downgrade(line)
			s.Dir.Downgrades++
			e.sharers |= 1<<uint(chip) | 1<<uint(o)
			e.owner = noOwner
		}
		return ready, RemoteL2
	}

	// Clean at home (possibly shared elsewhere).
	if exclusive {
		for other := 0; other < len(s.Chips); other++ {
			if other == chip || e.sharers&(1<<uint(other)) == 0 {
				continue
			}
			s.Net.Transact(start, h, other)
			s.Chips[other].Invalidate(line)
			s.Dir.Invalidations++
		}
		e.sharers = 1 << uint(chip)
		e.owner = int8(chip)
	} else {
		e.sharers |= 1 << uint(chip)
		e.owner = noOwner
	}
	if h == chip {
		return start + int64(s.Cfg.LocalMemLatency), LocalMem
	}
	return start + int64(s.Cfg.RemoteMemLat), RemoteMem
}

// MemSnapshot is a read-only view of the memory system at one cycle:
// cumulative access counters summed over chips plus point-in-time
// occupancy gauges. It exists for the observability sampler, so taking
// one must never mutate timing state (MSHR occupancy uses the
// non-retiring probe; the directory count reads the live population).
type MemSnapshot struct {
	Loads, Stores, LoadRetries         uint64
	L1Hits, L1Misses, L2Hits, L2Misses uint64
	MSHROccupancy                      int // outstanding fills at the snapshot cycle
	DirLines                           int // directory-tracked lines
}

// Snapshot captures the machine-wide memory counters at cycle now.
func (s *System) Snapshot(now int64) MemSnapshot {
	snap := MemSnapshot{
		Loads:       s.Stats.Loads,
		Stores:      s.Stats.Stores,
		LoadRetries: s.Stats.LoadRetries,
		DirLines:    s.Dir.Lines(),
	}
	for _, c := range s.Chips {
		snap.L1Hits += c.L1.Hits
		snap.L1Misses += c.L1.Misses
		snap.L2Hits += c.L2.Hits
		snap.L2Misses += c.L2.Misses
		snap.MSHROccupancy += c.MSHR.Occupancy(now)
	}
	return snap
}

// ChipSnapshot is one chip's slice of a MemSnapshot: the per-chip
// cache counters and MSHR occupancy the allocation subsystem samples
// at epoch boundaries. Like Snapshot it must never mutate timing
// state.
func (s *System) ChipSnapshot(chip int, now int64) MemSnapshot {
	c := s.Chips[chip]
	return MemSnapshot{
		L1Hits:        c.L1.Hits,
		L1Misses:      c.L1.Misses,
		L2Hits:        c.L2.Hits,
		L2Misses:      c.L2.Misses,
		MSHROccupancy: c.MSHR.Occupancy(now),
	}
}

// CanAcceptLoad reports whether chip could start a new load miss at
// cycle now (issue gating for the pipeline's memory-hazard accounting).
func (s *System) CanAcceptLoad(now int64, chip int) bool {
	return s.Chips[chip].MSHR.Free(now) > 0
}

func mustAlloc(m *memsys.MSHRFile, now, line, ready int64) {
	if !m.TryAlloc(now, line, ready) {
		panic("coherence: MSHR allocation failed after availability check")
	}
}
