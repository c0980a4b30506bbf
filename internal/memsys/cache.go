// Package memsys implements the per-chip memory hierarchy mechanics of
// §3.4/Table 3: banked set-associative L1 and L2 tag arrays with LRU
// replacement and MSI line states, a fully associative random-
// replacement TLB, MSHRs bounding outstanding loads, and bank-occupancy
// contention. Cross-chip coherence lives in package coherence.
//
// The caches track tags and states only — data values come from the
// functional front end — so "reading" a line means timing its access.
package memsys

import "fmt"

// LineState is the MSI coherence state of a cached line.
type LineState uint8

// MSI states.
const (
	Invalid LineState = iota
	Shared
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

type way struct {
	line  int64 // line-aligned base address; valid only if state != Invalid
	state LineState
	lru   uint64 // larger = more recently used
}

// Cache is a set-associative tag array. Addresses passed in must be
// line-aligned ("line addresses"). Geometries are powers of two so set
// selection is a shift and a mask (enforced at construction).
type Cache struct {
	name      string
	sets      int
	assoc     int
	lineBytes int64
	lineShift uint  // log2(lineBytes)
	setMask   int64 // sets - 1
	ways      []way // sets*assoc, row-major by set
	// mru holds, per set, the way index last hit or filled — checked
	// first on every lookup so repeated touches of the same line skip
	// the set walk. Purely a hint: a stale value only costs the walk.
	mru  []int32
	tick uint64

	// cow marks the tag arrays (ways, mru) as shared with a forked twin;
	// the first mutating method privatizes them via own(). Scalar fields
	// (tick, stats) are copied by value at Fork time and never shared.
	cow bool

	// Stats.
	Hits, Misses, Evictions, WritebackEvictions uint64
}

// log2OfPow2 returns log2(v), panicking unless v is a positive power
// of two.
func log2OfPow2(what string, v int64) uint {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("memsys: %s must be a positive power of two, got %d", what, v))
	}
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// NewCache builds a cache with the given geometry. sizeKB must divide
// evenly into sets of assoc lines, and both the line size and the
// resulting set count must be powers of two.
func NewCache(name string, sizeKB, lineBytes, assoc int) *Cache {
	lines := sizeKB * 1024 / lineBytes
	if lines%assoc != 0 {
		panic(fmt.Sprintf("memsys: %s: %dKB/%dB/%d-way does not form whole sets", name, sizeKB, lineBytes, assoc))
	}
	sets := lines / assoc
	c := &Cache{
		name:      name,
		sets:      sets,
		assoc:     assoc,
		lineBytes: int64(lineBytes),
		lineShift: log2OfPow2(name+" line size", int64(lineBytes)),
		setMask:   int64(sets - 1),
		ways:      make([]way, sets*assoc),
		mru:       make([]int32, sets),
	}
	log2OfPow2(name+" set count", int64(sets))
	return c
}

// Fork returns a copy-on-write clone of the cache: the clone shares the
// tag arrays with c until either side first mutates, at which point the
// mutator copies them (own). Counters and the LRU tick diverge freely —
// they live in the struct, which is copied by value here.
func (c *Cache) Fork() *Cache {
	c.cow = true
	cp := *c
	return &cp
}

// own privatizes the tag arrays before a mutation when they are still
// shared with a forked twin.
func (c *Cache) own() {
	if !c.cow {
		return
	}
	c.ways = append([]way(nil), c.ways...)
	c.mru = append([]int32(nil), c.mru...)
	c.cow = false
}

// Sets returns the number of sets (diagnostics).
func (c *Cache) Sets() int { return c.sets }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int64 { return c.lineBytes }

// setIndex returns the set number holding line.
func (c *Cache) setIndex(line int64) int {
	return int((line >> c.lineShift) & c.setMask)
}

func (c *Cache) set(line int64) []way {
	s := c.setIndex(line)
	return c.ways[s*c.assoc : (s+1)*c.assoc]
}

// Lookup returns the state of line, counting a hit or miss, and updates
// LRU on hit.
func (c *Cache) Lookup(line int64) LineState {
	c.own()
	c.tick++
	si := c.setIndex(line)
	base := si * c.assoc
	if w := &c.ways[base+int(c.mru[si])]; w.state != Invalid && w.line == line {
		w.lru = c.tick
		c.Hits++
		return w.state
	}
	set := c.ways[base : base+c.assoc]
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			w.lru = c.tick
			c.mru[si] = int32(i)
			c.Hits++
			return w.state
		}
	}
	c.Misses++
	return Invalid
}

// FindWay returns the absolute way-array index holding line, or -1 —
// without touching stats, LRU or the MRU hint. Together with TouchHit /
// TouchMiss it lets a caller that needs an early residence check (the
// load path's MSHR gate) walk the set once instead of probing and then
// looking up.
func (c *Cache) FindWay(line int64) int {
	si := c.setIndex(line)
	base := si * c.assoc
	if w := &c.ways[base+int(c.mru[si])]; w.state != Invalid && w.line == line {
		return base + int(c.mru[si])
	}
	set := c.ways[base : base+c.assoc]
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			return base + i
		}
	}
	return -1
}

// TouchHit replays exactly what Lookup does on a hit at the way index
// returned by FindWay: one tick, the LRU update and the Hits count. The
// cache must not have been mutated since the FindWay call.
func (c *Cache) TouchHit(wi int) LineState {
	c.own()
	c.tick++
	w := &c.ways[wi]
	w.lru = c.tick
	c.mru[wi/c.assoc] = int32(wi % c.assoc)
	c.Hits++
	return w.state
}

// TouchMiss replays what Lookup does on a miss: one tick and the Misses
// count. It touches only value fields, so no own() is needed.
func (c *Cache) TouchMiss() {
	c.tick++
	c.Misses++
}

// Probe returns the state of line without touching LRU or stats.
func (c *Cache) Probe(line int64) LineState {
	set := c.set(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			return w.state
		}
	}
	return Invalid
}

// SetState changes the state of a resident line; it is a no-op if the
// line is not resident. Setting Invalid invalidates.
func (c *Cache) SetState(line int64, st LineState) {
	c.own()
	set := c.set(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			w.state = st
			return
		}
	}
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Line    int64
	State   LineState
	Evicted bool
}

// Insert places line with the given state, evicting the LRU way if the
// set is full. If the line is already resident its state is updated in
// place (no eviction).
func (c *Cache) Insert(line int64, st LineState) Victim {
	c.own()
	c.tick++
	si := c.setIndex(line)
	set := c.ways[si*c.assoc : (si+1)*c.assoc]
	var free, lruIdx = -1, 0
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			w.state = st
			w.lru = c.tick
			c.mru[si] = int32(i)
			return Victim{}
		}
		if w.state == Invalid {
			free = i
		} else if set[i].lru < set[lruIdx].lru || set[lruIdx].state == Invalid {
			lruIdx = i
		}
	}
	if free >= 0 {
		set[free] = way{line: line, state: st, lru: c.tick}
		c.mru[si] = int32(free)
		return Victim{}
	}
	v := Victim{Line: set[lruIdx].line, State: set[lruIdx].state, Evicted: true}
	c.Evictions++
	if v.State == Modified {
		c.WritebackEvictions++
	}
	set[lruIdx] = way{line: line, state: st, lru: c.tick}
	c.mru[si] = int32(lruIdx)
	return v
}

// Resident reports how many lines are currently valid (testing aid).
func (c *Cache) Resident() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].state != Invalid {
			n++
		}
	}
	return n
}
