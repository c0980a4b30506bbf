package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"clustersmt/internal/coherence"
	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/stats"
	"clustersmt/internal/workloads"
)

// cell is one simulation a workload asks for: a workload on a machine
// at an input size.
type cell struct {
	app     workloads.Workload
	arch    config.Arch
	highEnd bool
	size    workloads.Size
	policy  string // allocation policy ("" = static seed placement)
}

func (c cell) machine() config.Machine {
	m := config.LowEnd(c.arch)
	if c.highEnd {
		m = config.HighEnd(c.arch)
	}
	m.Alloc = config.AllocConfig{Policy: c.policy}
	return m
}

func (c cell) key() string {
	class := "low"
	if c.highEnd {
		class = "high"
	}
	k := fmt.Sprintf("%s/%s/%s/%s", class, c.app.Name, c.arch.Name, c.size)
	if c.policy != "" {
		k = c.policy + "/" + k
	}
	return k
}

// Oracle-search budget of harness.Suite (its oraclePrefixCycles and
// oracleMaxCandidates): the direct replica of an oracle cell profiles
// the same candidates for the same prefix.
const (
	oraclePrefixCycles  = 20_000
	oracleMaxCandidates = 64
)

// coreTotals accumulates the core, workloads and memory layers over
// the direct runs of a traced pass.
type coreTotals struct {
	build, new, run  time.Duration
	cycles, ffCycles int64
	results          []*core.Result
}

// directRun simulates c by calling Workload.Build, core.New and
// Simulator.Run directly — the path harness.Suite takes, with spans
// around each call and the counters the suite hides
// (Simulator.FastForwarded). Oracle cells replay the suite's static
// search with core.SearchStatic first.
func directRun(tr *tracer, parent int64, c cell, t *coreTotals) (*core.Result, error) {
	m := c.machine()
	root := tr.begin("core.direct", parent, map[string]string{"cell": c.key()})
	defer root.end()
	mk := func(m config.Machine) (*core.Simulator, error) {
		t0 := time.Now()
		sb := tr.begin("workloads.build", root.ID(), nil)
		p := c.app.Build(m.Threads(), m.Chips, c.size)
		sb.end()
		t1 := time.Now()
		sn := tr.begin("core.new", root.ID(), nil)
		sim, err := core.New(m, p)
		sn.end()
		t.build += t1.Sub(t0)
		t.new += time.Since(t1)
		return sim, err
	}
	sim, err := mk(m)
	if err != nil {
		return nil, err
	}
	if c.policy == "oracle" {
		sm := m
		sm.Alloc = config.AllocConfig{}
		ss := tr.begin("alloc.search", root.ID(), nil)
		best, _, err := core.SearchStatic(func() (*core.Simulator, error) { return mk(sm) },
			oraclePrefixCycles, oracleMaxCandidates)
		ss.end()
		if err != nil {
			return nil, err
		}
		if err := sim.SetAssignment(best); err != nil {
			return nil, err
		}
	}
	sr := tr.begin("core.run", root.ID(), nil)
	t0 := time.Now()
	r, err := sim.Run()
	t.run += time.Since(t0)
	sr.end()
	if err != nil {
		return nil, err
	}
	t.cycles += r.Cycles
	t.ffCycles += sim.FastForwarded()
	t.results = append(t.results, r)
	return r, nil
}

// addCoreMetrics reports the workloads, core, memsys, coherence and
// interconnect layers from the direct runs.
func addCoreMetrics(m map[string]float64, t *coreTotals) {
	m["workloads.build_ms"] = ms(t.build)
	m["core.new_ms"] = ms(t.new)
	m["core.run_s"] = t.run.Seconds()
	if t.run > 0 {
		m["core.kcycles_per_s"] = float64(t.cycles) / 1e3 / t.run.Seconds()
	}
	if t.cycles > 0 {
		m["core.ff_share"] = float64(t.ffCycles) / float64(t.cycles)
	}
	m["core.sim_cycles"] = float64(t.cycles)
	var committed uint64
	var useful, slots float64
	var mem coherence.Stats
	var inv, three, msgs uint64
	var l1, classified uint64
	for _, r := range t.results {
		committed += r.Committed
		for c, v := range r.Slots.Counts {
			slots += v
			if stats.Category(c) == stats.Useful {
				useful += v
			}
		}
		mem.Loads += r.MemStats.Loads
		mem.Stores += r.MemStats.Stores
		mem.LoadRetries += r.MemStats.LoadRetries
		mem.TLBMisses += r.MemStats.TLBMisses
		for c, v := range r.MemStats.ByClass {
			classified += v
			if coherence.AccessClass(c) == coherence.L1Hit {
				l1 += v
			}
		}
		inv += r.Invalidations
		three += r.ThreeHops
		msgs += r.NetMessages
	}
	m["core.committed"] = float64(committed)
	if slots > 0 {
		m["core.useful_slot_share"] = useful / slots
	}
	m["memsys.loads"] = float64(mem.Loads)
	m["memsys.stores"] = float64(mem.Stores)
	m["memsys.load_retries"] = float64(mem.LoadRetries)
	m["memsys.tlb_misses"] = float64(mem.TLBMisses)
	if classified > 0 {
		m["memsys.l1_hit_share"] = float64(l1) / float64(classified)
	}
	if t.run > 0 {
		m["memsys.accesses_per_s"] = float64(mem.Loads+mem.Stores) / t.run.Seconds()
	}
	m["coherence.invalidations"] = float64(inv)
	m["coherence.three_hops"] = float64(three)
	m["interconnect.messages"] = float64(msgs)
}

// cachedRunUS times harness.Suite.Run on a cell the suite already
// holds: the per-request cost of the run cache, median of many calls.
func cachedRunUS(s *harness.Suite, c cell) (float64, error) {
	const n = 2000
	d := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := s.RunContext(context.Background(), c.app, c.arch, c.highEnd); err != nil {
			return 0, err
		}
		d = append(d, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(d), nil
}

// onSimulateSpans returns a Suite.OnSimulate hook recording each
// simulation as a core.simulate span under the caller's span.
func onSimulateSpans(tr *tracer) func(ctx context.Context, app, machine string, highEnd bool, d time.Duration, err error) {
	if tr == nil {
		return nil
	}
	return func(ctx context.Context, app, machine string, highEnd bool, d time.Duration, err error) {
		tr.record("core.simulate", 0, parentFrom(ctx), time.Now().Add(-d), d,
			map[string]string{"app": app, "machine": machine})
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the middle value (mean of the two middle values for
// an even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile by nearest rank; 0 for none.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(len(s)-1, i))]
}

// timedPasses runs pass repeatedly for about budget: it starts another
// pass while the projected end (one more pass as long as the last one)
// lands closer to the budget than stopping now, and always runs at
// least one. It returns the number of passes run.
func timedPasses(budget time.Duration, pass func() (time.Duration, error)) (int, error) {
	start := time.Now()
	n := 0
	for {
		d, err := pass()
		if err != nil {
			return n, err
		}
		n++
		if time.Since(start)+d/2 >= budget {
			return n, nil
		}
	}
}

// setupMedian runs one set-up n times and returns the median duration
// in seconds.
func setupMedian(n int, f func() error) (float64, error) {
	var d []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d = append(d, time.Since(t0).Seconds())
	}
	return median(d), nil
}
