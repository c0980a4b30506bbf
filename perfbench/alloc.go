package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// allocPolicies are the feedback policies and the oracle the alloc
// workload compares; each runs in its own Suite.
var allocPolicies = []string{"icount", "symbiosis", "oracle"}

// simSlots bounds concurrent simulations to the host's processors.
func simSlots() int { return runtime.GOMAXPROCS(0) }

// allocCells lists the workload's cells in the order they are handed
// to the simulation slots: the oracle cells first, longest search first
// (ocean and fmm high-end, then low-end), so the long searches never
// trail the short runs and the pass's makespan does not depend on the
// seed; the seed shuffles the short feedback-policy cells behind them.
func allocCells(e *env, size workloads.Size, policies []string) []cell {
	var oracle, rest []cell
	for _, pol := range policies {
		for _, highEnd := range []bool{true, false} {
			for _, app := range []workloads.Workload{workloads.Ocean(), workloads.Fmm()} {
				c := cell{app: app, arch: config.SMT2, highEnd: highEnd, size: size, policy: pol}
				if pol == "oracle" {
					oracle = append(oracle, c)
				} else {
					rest = append(rest, c)
				}
			}
		}
	}
	e.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return append(oracle, rest...)
}

// allocOutcome is one cell's result and how long Suite.Run took.
type allocOutcome struct {
	res *core.Result
	err error
	d   time.Duration
	sim time.Duration // OnSimulate duration: the run after the search
}

// allocPass runs every cell through one Suite per policy with at most
// simSlots cells in flight.
func allocPass(e *env, cells []cell) (map[string]*harness.Suite, []allocOutcome, time.Duration) {
	suites := map[string]*harness.Suite{}
	out := make([]allocOutcome, len(cells))
	var simMu sync.Mutex
	for _, c := range cells {
		if suites[c.policy] == nil {
			s := harness.NewSuite(c.size)
			s.AllocPolicy = c.policy
			s.OnSimulate = func(ctx context.Context, app, machine string, highEnd bool, d time.Duration, err error) {
				simMu.Lock()
				out[ctx.Value(cellIndexKey{}).(int)].sim = d
				simMu.Unlock()
				if e.tr != nil {
					e.tr.record("core.simulate", 0, parentFrom(ctx), time.Now().Add(-d), d,
						map[string]string{"app": app, "machine": machine})
				}
			}
			suites[c.policy] = s
		}
	}
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < simSlots(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				sp := e.tr.begin("harness.run", 0, map[string]string{"cell": c.key()})
				app := c.app
				if e.tr != nil {
					app = tracedBuild(e.tr, sp.ID(), app)
				}
				ctx := context.WithValue(withParent(context.Background(), sp), cellIndexKey{}, i)
				t := time.Now()
				r, err := suites[c.policy].RunContext(ctx, app, c.arch, c.highEnd)
				d := time.Since(t)
				sp.end()
				simMu.Lock()
				out[i].res, out[i].err, out[i].d = r, err, d
				simMu.Unlock()
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return suites, out, time.Since(t0)
}

type cellIndexKey struct{}

// tracedBuild wraps a workload's Build with a workloads.build span;
// the Suite (and its oracle search) builds through the wrapper.
func tracedBuild(tr *tracer, parent int64, w workloads.Workload) workloads.Workload {
	build := w.Build
	w.Build = func(threads, chips int, size workloads.Size) *prog.Program {
		sp := tr.begin("workloads.build", parent, nil)
		defer sp.end()
		return build(threads, chips, size)
	}
	return w
}

// checkAlloc compares every cell's result with its golden digest.
func checkAlloc(e *env, rep *report, cells []cell, out []allocOutcome) []*core.Result {
	var rs []*core.Result
	for i, c := range cells {
		rep.attempted++
		if out[i].err != nil {
			rep.fail("%s: %v", c.key(), out[i].err)
			continue
		}
		if err := e.golden.check("alloc/"+c.key(), out[i].res); err != nil {
			rep.fail("%v", err)
			continue
		}
		rs = append(rs, out[i].res)
	}
	return rs
}

func runAlloc(e *env) (*report, error) {
	rep := newReport()
	cells := allocCells(e, workloads.SizeRef, allocPolicies)
	rep.notes = append(rep.notes, fmt.Sprintf("%d cells, ref size, %d simulation slots", len(cells), simSlots()))

	// Set-up: the feedback policies' cells at test size, so lazily
	// initialized runtime and simulator state is in place before timing.
	var tr *tracer
	tr, e.tr = e.tr, nil
	warm := allocCells(e, workloads.SizeTest, allocPolicies[:2])
	setup, err := setupMedian(5, func() error {
		_, out, _ := allocPass(e, warm)
		for _, o := range out {
			if o.err != nil {
				return o.err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var walls, rates []float64
	var last map[string]*harness.Suite
	pass := func() (time.Duration, error) {
		suites, out, wall := allocPass(e, cells)
		rs := checkAlloc(e, rep, cells, out)
		walls = append(walls, wall.Seconds())
		rates = append(rates, committedMinst(rs)/wall.Seconds())
		last = suites
		return wall, nil
	}
	if tr == nil {
		n, err := timedPasses(e.seconds, pass)
		if err != nil {
			return nil, err
		}
		rep.metrics["setup_s"] = setup
		rep.metrics["wall_s"] = median(walls)
		rep.metrics["sim_minst_per_s"] = median(rates)
		rep.metrics["retained_heap_mb"] = retainedHeapMB()
		runtime.KeepAlive(last)
		rep.notes = append(rep.notes, fmt.Sprintf("%d timed passes: wall %.3f s", n, walls))
		return rep, nil
	}

	// Traced run: an untraced pass for the overhead baseline, a traced
	// pass, then a direct replica of every cell (oracle search included).
	if _, err := pass(); err != nil {
		return nil, err
	}
	e.tr = tr
	r0 := readRuntime()
	suites, out, wall := allocPass(e, cells)
	addRuntimeDelta(rep.metrics, r0, readRuntime())
	rep.metrics["trace_overhead_share"] = wall.Seconds()/walls[0] - 1
	checkAlloc(e, rep, cells, out)

	var presim, total time.Duration
	for i, c := range cells {
		total += out[i].d
		if c.policy == "oracle" {
			presim += out[i].d - out[i].sim
		}
	}
	rep.metrics["alloc.presim_s"] = presim.Seconds()
	rep.metrics["alloc.oracle_share"] = presim.Seconds() / total.Seconds()
	var sims, migrations, epochs int64
	for _, s := range suites {
		sims += s.Simulations()
		migrations += s.AllocMigrations()
		epochs += s.AllocEpochs()
	}
	rep.metrics["alloc.migrations"] = float64(migrations)
	rep.metrics["alloc.epochs"] = float64(epochs)
	rep.metrics["harness.requests"] = float64(len(cells))
	rep.metrics["harness.simulations"] = float64(sims)
	rep.metrics["harness.dedup_share"] = 1 - float64(sims)/float64(len(cells))
	if rep.metrics["harness.cached_run_us"], err = cachedRunUS(suites[cells[0].policy], cells[0]); err != nil {
		return nil, err
	}

	var t coreTotals
	for i, c := range cells {
		r, err := directRun(e.tr, 0, c, &t)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		if !reflect.DeepEqual(r, out[i].res) {
			rep.fail("%s: direct replica differs from the Suite's result", c.key())
		}
	}
	addCoreMetrics(rep.metrics, &t)
	return rep, nil
}
