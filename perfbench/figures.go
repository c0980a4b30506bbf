package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/workloads"
)

// figureNumbers are the paper figures the figures workload renders;
// the seed picks the order they are requested in (Figure 7 then either
// fills or reuses Figure 4's cells — the same work either way).
var figureNumbers = []int{4, 5, 7, 8}

// figuresPass renders every figure through one cold Suite.
func figuresPass(e *env, size workloads.Size, order []int) (*harness.Suite, []*harness.Figure, time.Duration, error) {
	s := harness.NewSuite(size)
	s.OnSimulate = onSimulateSpans(e.tr)
	figs := make([]*harness.Figure, 0, len(order))
	t0 := time.Now()
	for _, n := range order {
		sp := e.tr.begin("harness.figure", 0, map[string]string{"figure": fmt.Sprint(n)})
		f, err := s.FigureByNumber(withParent(context.Background(), sp), n)
		sp.end()
		if err != nil {
			return nil, nil, 0, err
		}
		figs = append(figs, f)
	}
	return s, figs, time.Since(t0), nil
}

// figureCells lists the cells behind a figure's rows.
func figureCells(f *harness.Figure, highEnd bool, size workloads.Size) ([]cell, error) {
	var cells []cell
	for _, r := range f.Rows {
		w, err := workloads.ByName(r.App)
		if err != nil {
			return nil, err
		}
		a, err := config.ArchByName(r.Arch)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell{app: w, arch: a, highEnd: highEnd, size: size})
	}
	return cells, nil
}

// checkFigures verifies one pass: each figure's text must appear in
// paperfigs_output.txt, and each row's result must match its golden
// digest. It returns the distinct results (FA8 and SMT8 share one).
func checkFigures(e *env, rep *report, s *harness.Suite, figs []*harness.Figure, order []int, expected string) ([]*core.Result, []cell, error) {
	seen := map[*core.Result]bool{}
	var distinct []*core.Result
	var distinctCells []cell
	for i, f := range figs {
		highEnd := order[i] == 5 || order[i] == 8
		cells, err := figureCells(f, highEnd, s.Size)
		if err != nil {
			return nil, nil, err
		}
		rendered := strings.Contains(expected, f.Render())
		for _, c := range cells {
			rep.attempted++
			r, err := s.Run(c.app, c.arch, c.highEnd)
			if err != nil {
				rep.fail("figure %d %s: %v", order[i], c.key(), err)
				continue
			}
			if !rendered {
				rep.fail("figure %d: rendered text differs from paperfigs_output.txt", order[i])
				continue
			}
			if err := e.golden.check("figures/"+c.key(), r); err != nil {
				rep.fail("figure %d: %v", order[i], err)
				continue
			}
			if !seen[r] {
				seen[r] = true
				distinct = append(distinct, r)
				distinctCells = append(distinctCells, c)
			}
		}
	}
	return distinct, distinctCells, nil
}

func committedMinst(rs []*core.Result) float64 {
	var n uint64
	for _, r := range rs {
		n += r.Committed
	}
	return float64(n) / 1e6
}

func runFigures(e *env) (*report, error) {
	rep := newReport()
	b, err := os.ReadFile(filepath.Join(e.root, "paperfigs_output.txt"))
	if err != nil {
		return nil, err
	}
	expected := string(b)
	order := make([]int, len(figureNumbers))
	for i, j := range e.rng.Perm(len(figureNumbers)) {
		order[i] = figureNumbers[j]
	}
	rep.notes = append(rep.notes, fmt.Sprintf("figure order %v, ref size", order))

	// Set-up: render the figures at test size, so lazily initialized
	// runtime and simulator state is in place before timing.
	var tr *tracer
	tr, e.tr = e.tr, nil
	setup, err := setupMedian(3, func() error {
		_, _, _, err := figuresPass(e, workloads.SizeTest, order)
		return err
	})
	if err != nil {
		return nil, err
	}

	var walls, rates []float64
	var last *harness.Suite
	pass := func() (time.Duration, error) {
		s, figs, wall, err := figuresPass(e, workloads.SizeRef, order)
		if err != nil {
			return 0, err
		}
		distinct, _, err := checkFigures(e, rep, s, figs, order, expected)
		if err != nil {
			return 0, err
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, committedMinst(distinct)/wall.Seconds())
		last = s
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

	// Traced run: one untraced pass for the overhead baseline, one
	// traced pass, then direct core runs on every distinct cell.
	if _, err := pass(); err != nil {
		return nil, err
	}
	e.tr = tr
	r0 := readRuntime()
	s, figs, wall, err := figuresPass(e, workloads.SizeRef, order)
	if err != nil {
		return nil, err
	}
	addRuntimeDelta(rep.metrics, r0, readRuntime())
	rep.metrics["trace_overhead_share"] = wall.Seconds()/walls[0] - 1
	_, cells, err := checkFigures(e, rep, s, figs, order, expected)
	if err != nil {
		return nil, err
	}
	var requests int
	for _, f := range figs {
		requests += len(f.Rows)
	}
	rep.metrics["harness.requests"] = float64(requests)
	rep.metrics["harness.simulations"] = float64(s.Simulations())
	rep.metrics["harness.dedup_share"] = 1 - float64(s.Simulations())/float64(requests)
	if rep.metrics["harness.cached_run_us"], err = cachedRunUS(s, cells[0]); err != nil {
		return nil, err
	}
	var t coreTotals
	for _, c := range cells {
		r, err := directRun(e.tr, 0, c, &t)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		if err := e.golden.check("figures/"+c.key(), r); err != nil {
			rep.fail("direct run: %v", err)
		}
	}
	addCoreMetrics(rep.metrics, &t)
	return rep, nil
}
