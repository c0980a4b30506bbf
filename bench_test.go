// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks of the simulator's building blocks.
// Each BenchmarkFigN op regenerates the complete experiment at the
// reference input size; the printed metrics carry the headline numbers
// (normalized execution times) so `go test -bench .` doubles as the
// reproduction run.
package clustersmt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"clustersmt"
	"clustersmt/internal/config"
	"clustersmt/internal/harness"
	"clustersmt/internal/isa"
	"clustersmt/internal/model"
	"clustersmt/internal/service"
	"clustersmt/internal/workloads"
)

// BenchmarkTable1FunctionalUnits exercises every opcode class through a
// single-thread timing run (the Table 1 latencies in action).
func BenchmarkTable1FunctionalUnits(b *testing.B) {
	p := buildALUKernel()
	for i := 0; i < b.N; i++ {
		res, err := clustersmt.SimulateProgram(clustersmt.LowEnd(clustersmt.FA1), p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "cycles")
	}
}

func buildALUKernel() *clustersmt.Program {
	bld := clustersmt.NewProgram("alu")
	bld.GlobalWords("nthreads", []uint64{1})
	bld.Li(1, 0)
	bld.Li(2, 2000)
	bld.Fli(1, 1.5)
	bld.Fli(2, 0.75)
	bld.CountedLoop(1, 2, func() {
		bld.Add(3, 1, 2)
		bld.Mul(4, 3, 1)
		bld.Div(5, 4, 2)
		bld.Fadd(3, 1, 2)
		bld.Fmul(4, 1, 2)
		bld.Fdiv(5, 1, 2)
	})
	bld.Halt()
	return bld.MustBuild()
}

// BenchmarkTable2Architectures runs one small workload across all seven
// Table 2 presets.
func BenchmarkTable2Architectures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, arch := range clustersmt.Architectures() {
			if _, err := clustersmt.Simulate(clustersmt.LowEnd(arch), "vpenta", clustersmt.SizeTest); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable3MemoryHierarchy stresses the Table 3 hierarchy with
// the memory-bound workload.
func BenchmarkTable3MemoryHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := clustersmt.Simulate(clustersmt.LowEnd(clustersmt.FA1), "ocean", clustersmt.SizeTest)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Slots.Fraction(clustersmt.SlotMemory), "memory-slot-%")
	}
}

// BenchmarkFig1Model evaluates the §2 analytical model over a dense
// sweep of application points and all architectures.
func BenchmarkFig1Model(b *testing.B) {
	procs := make([]model.Proc, 0, 7)
	for _, a := range config.AllArchs {
		procs = append(procs, model.FromArch(a))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0.0
		for t := 0.25; t <= 8; t += 0.25 {
			for ilp := 0.25; ilp <= 8; ilp += 0.25 {
				p := model.Point{Threads: t, ILP: ilp}
				for _, pr := range procs {
					total += pr.Delivered(p)
					_ = pr.Classify(p)
				}
			}
		}
		if total <= 0 {
			b.Fatal("model produced nothing")
		}
	}
}

func benchFigure(b *testing.B, run func(*harness.Suite) (*harness.Figure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		suite := harness.NewSuite(workloads.SizeRef)
		fig, err := run(suite)
		if err != nil {
			b.Fatal(err)
		}
		// Surface the headline metric: SMT2's average normalized
		// execution time across applications.
		sum := 0.0
		for _, app := range fig.Apps {
			sum += fig.Get(app, "SMT2").Normalized
		}
		b.ReportMetric(sum/float64(len(fig.Apps)), "SMT2-norm")
		if !testing.Short() && b.N == 1 {
			fmt.Print(fig.Render())
		}
	}
}

// BenchmarkFig4LowEndFAvsSMT2 regenerates Figure 4 (FA8/FA4/FA2/FA1 vs
// SMT2, low-end machine, six applications).
func BenchmarkFig4LowEndFAvsSMT2(b *testing.B) {
	benchFigure(b, (*harness.Suite).Figure4)
}

// BenchmarkFig5HighEndFAvsSMT2 regenerates Figure 5 (the same
// comparison on the 4-chip machine).
func BenchmarkFig5HighEndFAvsSMT2(b *testing.B) {
	benchFigure(b, (*harness.Suite).Figure5)
}

// BenchmarkFig6Placement regenerates the Figure 6 measurements (average
// threads on FA8 × per-thread ILP on FA1, both machines).
func BenchmarkFig6Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := harness.NewSuite(workloads.SizeRef)
		for _, highEnd := range []bool{false, true} {
			pts, err := suite.Placement(highEnd)
			if err != nil {
				b.Fatal(err)
			}
			if len(pts) != 6 {
				b.Fatal("missing placements")
			}
		}
	}
}

// BenchmarkFig7LowEndSMTs regenerates Figure 7 (SMT8/SMT4/SMT2/SMT1,
// low-end machine).
func BenchmarkFig7LowEndSMTs(b *testing.B) {
	benchFigure(b, (*harness.Suite).Figure7)
}

// BenchmarkFig8HighEndSMTs regenerates Figure 8 (the same on the 4-chip
// machine).
func BenchmarkFig8HighEndSMTs(b *testing.B) {
	benchFigure(b, (*harness.Suite).Figure8)
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (simulated instructions per host second) on the densest workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := clustersmt.Simulate(clustersmt.LowEnd(clustersmt.SMT2), "swim", clustersmt.SizeRef)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Committed
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkPerApplication runs each workload once on SMT2 (low-end,
// reference input) as individual sub-benchmarks.
func BenchmarkPerApplication(b *testing.B) {
	for _, w := range clustersmt.Workloads() {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := clustersmt.Simulate(clustersmt.LowEnd(clustersmt.SMT2), w, clustersmt.SizeRef)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.IPC, "IPC")
			}
		})
	}
}

// buildStallHeavy is the event-driven fast-forward's motivating
// workload: one thread chases a pointer chain through remote L2 (a
// serial section) while the other 31 contexts wait at a barrier. On the
// high-end machine almost every cycle is globally quiescent — all
// clusters are blocked on the barrier or on a long-latency load — so
// the cycle loop can jump from event to event.
func buildStallHeavy(links int64) *clustersmt.Program {
	b := clustersmt.NewProgram("pchase")
	b.GlobalWords("nthreads", []uint64{32})
	const n = 4096
	data := b.Global("chain", n)
	b.Global("out", 1)
	b.IfThread0(func() {
		b.Li(2, 0)
		b.Li(3, 0)
		b.Li(4, links)
		b.CountedLoop(3, 4, func() {
			b.Shli(5, 2, 3)
			b.Ld(2, 5, data)
		})
		b.St(2, 0, b.MustAddr("out"))
	})
	b.Barrier(0)
	b.Halt()
	p := b.MustBuild()
	base := p.SymbolAddr("chain")
	for i := int64(0); i < n; i++ {
		p.Init[base+i*8] = uint64((i*577 + 1) % n)
	}
	return p
}

func runStallHeavy(eventDriven bool) (*clustersmt.Result, error) {
	sim, err := clustersmt.NewSimulator(clustersmt.HighEnd(clustersmt.SMT2), buildStallHeavy(2000))
	if err != nil {
		return nil, err
	}
	sim.EventDriven = eventDriven
	return sim.Run()
}

// BenchmarkCoreFastForward compares plain cycle-by-cycle stepping
// against the event-driven fast-forward on the stall-heavy workload
// (results are bit-identical; see internal/core/fastforward_test.go).
// The sim-cycles/s metric is the one recorded in BENCH_core.json.
func BenchmarkCoreFastForward(b *testing.B) {
	for _, mode := range []struct {
		name        string
		eventDriven bool
	}{
		{"cycle-stepped", false},
		{"event-driven", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := runStallHeavy(mode.eventDriven)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

// buildComputeBound is the wakeup issue stage's motivating workload:
// the inverse of pchase. Two contexts per SMT1 chip each grind a
// serial unpipelined-Fdiv dependence chain — at 7 cycles per link that
// is well under one instruction per cycle per chip, yet the chains'
// in-flight tails pack all four 128-entry windows with waiting
// entries. Thread 0 is a ticker: a serial one-cycle integer Add chain
// that issues and commits every single cycle, which pins the
// quiescence fast-forward off for the whole machine (quiescence is
// global) for the whole run — it is sized to outlast the Fdiv
// threads. The remaining contexts halt immediately so the per-cycle
// bookkeeping outside the issue stage stays small. All the host time
// therefore goes to the issue stage itself: the full-window scan
// re-polls ~500 waiting Fdivs every cycle, while the wakeup path
// touches only the ticker plus the rare Fdiv completion events.
func buildComputeBound(fdivIters, tickIters int64) *clustersmt.Program {
	b := clustersmt.NewProgram("fdivchain")
	b.GlobalWords("nthreads", []uint64{32})
	b.Li(9, 0)
	b.Li(11, 1)
	b.Blt(isa.RegTID, 11, "ticker") // thread 0
	b.Li(11, 9)
	b.Blt(isa.RegTID, 11, "fdiv") // threads 1..8: two per chip
	b.Halt()                      // the rest retire immediately

	b.Label("ticker")
	b.Li(1, 1)
	b.Li(2, 0)
	b.Li(10, tickIters)
	b.CountedLoop(9, 10, func() {
		for k := 0; k < 24; k++ {
			b.Add(2, 2, 1)
		}
	})
	b.Halt()

	b.Label("fdiv")
	b.Fli(1, 1.0)
	b.Fli(2, 1.0001)
	b.Li(10, fdivIters)
	b.CountedLoop(9, 10, func() {
		for k := 0; k < 4; k++ {
			b.Fdiv(1, 1, 2)
		}
	})
	b.Halt()
	return b.MustBuild()
}

// newComputeBound builds the benchmark simulator: ICOUNT fetch keeps
// the ticker thread — always the fewest in-flight instructions, since
// its entries commit the cycle after they issue — fed with the window
// slots the Fdiv hoarders release, so its one-instruction-per-cycle
// stream never starves.
func newComputeBound(eventIssue bool) (*clustersmt.Simulator, error) {
	sim, err := clustersmt.NewSimulator(clustersmt.HighEnd(clustersmt.SMT1), buildComputeBound(1600, 2100))
	if err != nil {
		return nil, err
	}
	sim.SetICountFetch(true)
	sim.EventIssue = eventIssue
	return sim, nil
}

func runComputeBound(eventIssue bool) (*clustersmt.Result, error) {
	sim, err := newComputeBound(eventIssue)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// BenchmarkCoreWakeup compares the reference full-window issue scan
// against the dependence-driven wakeup path on the compute-bound
// workload (results are bit-identical; see
// internal/core/fastforward_test.go and wakeup_test.go). The
// sim-cycles/s metric is the one recorded in BENCH_core.json.
func BenchmarkCoreWakeup(b *testing.B) {
	for _, mode := range []struct {
		name       string
		eventIssue bool
	}{
		{"scan", false},
		{"wakeup", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := runComputeBound(mode.eventIssue)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

// buildMemBound is the memory-path fast paths' motivating workload:
// thread 0 chases a pointer chain whose 32KB footprint spills L1 (a
// serial stream of L2/remote misses through the directory), while the
// other 31 threads stride through a shared 512KB region one line per
// load — every load opens a new line, so each chip's in-flight misses
// pin its MSHR file at capacity and rejected loads retry every cycle.
// On the reference implementations each of those retries pays an
// O(pending) MSHR map sweep and every directory touch chases a
// per-line pointer; the fast paths make retirement amortized O(1) and
// the directory an inline open-addressed table.
func buildMemBound(iters int64) *clustersmt.Program {
	b := clustersmt.NewProgram("memstride")
	b.GlobalWords("nthreads", []uint64{32})
	const (
		chainLen    = 4096
		streamWords = 64 * 1024 // 512KB: past the shrunken 64KB L2
		regionBytes = streamWords * 8
	)
	stream := b.Global("stream", streamWords)
	chain := b.Global("chain", chainLen)
	b.Global("out", 1)

	b.Li(1, 1)
	b.Blt(isa.RegTID, 1, "chase") // thread 0

	// Threads 1..31: strided remote-line streaming, phase-shifted so
	// each walks its own window of the region. Eight independent loads
	// per iteration keep many misses in flight.
	b.Shli(2, isa.RegTID, 14) // phase = tid * 16KB
	b.Li(3, 0)                // running byte offset
	b.Li(4, 0)
	b.Li(5, iters)
	b.CountedLoop(4, 5, func() {
		for k := 0; k < 8; k++ {
			b.Add(6, 3, 2)
			b.Andi(6, 6, regionBytes-1)
			b.Ld(7, 6, stream)
			b.Addi(3, 3, 64)
		}
	})
	b.Jump("join")

	b.Label("chase")
	b.Li(2, 0)
	b.Li(3, 0)
	b.Li(4, 2*iters)
	b.CountedLoop(3, 4, func() {
		b.Shli(5, 2, 3)
		b.Ld(2, 5, chain)
	})
	b.St(2, 0, b.MustAddr("out"))

	b.Label("join")
	b.Barrier(0)
	b.Halt()
	p := b.MustBuild()
	base := p.SymbolAddr("chain")
	for i := int64(0); i < chainLen; i++ {
		p.Init[base+i*8] = uint64((i*577 + 1) % chainLen)
	}
	return p
}

// memBoundMachine is the high-end machine with L1/L2 shrunk so the
// benchmark's footprint is memory-resident (the regime of Figs. 4-8's
// memory slots) without needing a multi-megabyte image.
func memBoundMachine() clustersmt.Machine {
	m := clustersmt.HighEnd(clustersmt.SMT2)
	m.Mem.L1SizeKB = 8
	m.Mem.L2SizeKB = 64
	return m
}

func runMemBound(reference bool) (*clustersmt.Result, error) {
	sim, err := clustersmt.NewSimulator(memBoundMachine(), buildMemBound(900))
	if err != nil {
		return nil, err
	}
	sim.SetReferenceMemPaths(reference)
	return sim.Run()
}

// BenchmarkCoreMemory compares the reference memory-path structures
// (MSHR map sweep, directory pointer map, double-walk L1 probe)
// against the fast paths on the memory-bound workload (results are
// bit-identical; see internal/core/memref_test.go). The sim-cycles/s
// metric is the one recorded in BENCH_core.json.
func BenchmarkCoreMemory(b *testing.B) {
	for _, mode := range []struct {
		name      string
		reference bool
	}{
		{"reference", true},
		{"fastpath", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := runMemBound(mode.reference)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

// runObsOverhead runs the memory-bound paper workload with the
// observability subsystem either fully off (the default: one nil check
// per cycle) or sampling a frame every DefaultMetricsInterval cycles
// into a ring. Results are bit-identical either way (see
// internal/core/obs_test.go); only host time may differ.
func runObsOverhead(sampled bool) (*clustersmt.Result, error) {
	m := clustersmt.LowEnd(clustersmt.SMT2)
	w, err := clustersmt.WorkloadByName("ocean")
	if err != nil {
		return nil, err
	}
	sim, err := clustersmt.NewSimulator(m, w.Build(m.Threads(), m.Chips, clustersmt.SizeRef))
	if err != nil {
		return nil, err
	}
	if sampled {
		sim.EnableMetrics(clustersmt.DefaultMetricsInterval, 0)
	}
	return sim.Run()
}

// BenchmarkObsOverhead measures the cost of interval metrics: the
// disabled leg is the plain simulator (sampling off), the sampled leg
// snapshots a frame every 10k cycles. The sim-cycles/s metric is the
// one recorded in BENCH_core.json.
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		sampled bool
	}{
		{"disabled", false},
		{"sampled", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := runObsOverhead(mode.sampled)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

// sweepForkWarmupIters sizes the shared warm-up prefix of the sweep-
// fork benchmark so warm-up dominates each point's run time: ~36k+
// cycles of serial chained FP against a few-hundred-cycle parallel
// body. That ratio is what checkpoint forking amortizes.
const sweepForkWarmupIters = 12000

// sweepForkSpecs is the 16-point (ChainLen x IndepOps) sweep grid of
// the checkpoint-forking benchmark. Every variant differs only in
// post-prefix knobs, so all sixteen share one prefix key and fork from
// a single warmed parent.
func sweepForkSpecs() []clustersmt.SyntheticSpec {
	var specs []clustersmt.SyntheticSpec
	for _, chain := range []int{0, 2, 4, 8} {
		for _, indep := range []int{0, 2, 4, 6} {
			specs = append(specs, clustersmt.SyntheticSpec{
				ChainLen: chain, IndepOps: indep,
				Iters: 192, WarmupIters: sweepForkWarmupIters,
			})
		}
	}
	return specs
}

// sweepForkWarmTarget probes how many cycles the shared warm-up prefix
// lasts and returns a checkpoint cycle proven to still be inside it
// (the probe observed PrefixValid at that exact pause point, and runs
// are deterministic). Probing instead of hardcoding keeps the
// benchmark honest if instruction latencies ever change.
func sweepForkWarmTarget(spec clustersmt.SyntheticSpec) (int64, error) {
	m := clustersmt.LowEnd(clustersmt.SMT2)
	sim, err := clustersmt.NewSimulator(m, clustersmt.Synthetic(spec).Build(m.Threads(), m.Chips, clustersmt.SizeTest))
	if err != nil {
		return 0, err
	}
	const step = 4096
	last := int64(0)
	for target := int64(step); ; target += step {
		if err := sim.RunTo(target); err != nil {
			return 0, err
		}
		if sim.Done() || !sim.PrefixValid() {
			break
		}
		last = target
	}
	if last == 0 {
		return 0, fmt.Errorf("warm-up prefix over before cycle %d; enlarge sweepForkWarmupIters", step)
	}
	return last, nil
}

// runForkSweep runs the sweep grid through one fresh Suite on the
// low-end SMT2, warm-started at warmCycles (0 = every point from
// scratch), returning the per-point results and the fork count.
func runForkSweep(specs []clustersmt.SyntheticSpec, warmCycles int64) ([]*clustersmt.Result, int64, error) {
	suite := harness.NewSuite(workloads.SizeTest)
	suite.WarmupCycles = warmCycles
	out := make([]*clustersmt.Result, len(specs))
	for i, spec := range specs {
		r, err := suite.Run(clustersmt.Synthetic(spec), config.SMT2, false)
		if err != nil {
			return nil, 0, err
		}
		out[i] = r
	}
	forks, _ := suite.WarmForks()
	return out, forks, nil
}

// BenchmarkSweepFork compares running a 16-point warm-up-dominated
// sweep with every point simulated from scratch against forking all
// sixteen points from one checkpoint taken inside the shared warm-up
// prefix (results are bit-identical; see internal/harness/warmup_test.go).
// The wall-clock ratio is the one recorded in BENCH_core.json — it is
// pure warm-up amortization, so it holds on a single-CPU host too.
func BenchmarkSweepFork(b *testing.B) {
	specs := sweepForkSpecs()
	warmAt, err := sweepForkWarmTarget(specs[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		warm int64
	}{
		{"scratch", 0},
		{"fork", warmAt},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := runForkSweep(specs, mode.warm); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// fabricSweepSpecs is the 16-point cache-cold sweep grid of the fabric
// scale-out benchmark. Unlike sweepForkSpecs there is no shared warm-up
// prefix: every point is an independent simulation, so the only lever
// is how many of them the fleet runs concurrently.
func fabricSweepSpecs() []clustersmt.SyntheticSpec {
	var specs []clustersmt.SyntheticSpec
	for _, chain := range []int{1, 2, 3, 4} {
		for _, indep := range []int{1, 2, 3, 4} {
			specs = append(specs, clustersmt.SyntheticSpec{
				ChainLen: chain, IndepOps: indep, Iters: 2048,
			})
		}
	}
	return specs
}

// startFabricFleet boots an in-process fabric — one coordinator plus n
// single-slot workers over loopback HTTP — waits until every worker is
// on the ring, and returns the coordinator's base URL plus a shutdown
// function. Caches start empty, so a sweep through the returned fleet
// is cache-cold.
func startFabricFleet(tb testing.TB, n int) (string, func()) {
	tb.Helper()
	shutdown := func(srv *service.Server, ts *httptest.Server) func() {
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = srv.Close(ctx)
			ts.Close()
		}
	}
	coordSrv, err := service.New(service.Options{
		DefaultSize:       workloads.SizeTest,
		QueueCap:          64,
		Coordinator:       true,
		HeartbeatInterval: 50 * time.Millisecond,
		// Only dispatch failures evict: a busy single-CPU host can
		// starve heartbeat goroutines long enough to flap the ring,
		// and rebalancing mid-measurement would distort the timing.
		HeartbeatTimeout: time.Hour,
	})
	if err != nil {
		tb.Fatal(err)
	}
	coordTS := httptest.NewServer(coordSrv.Handler())
	closers := []func(){shutdown(coordSrv, coordTS)}
	for i := 0; i < n; i++ {
		wSrv, err := service.New(service.Options{
			DefaultSize:       workloads.SizeTest,
			Workers:           1,
			QueueCap:          64,
			HeartbeatInterval: 50 * time.Millisecond,
		})
		if err != nil {
			tb.Fatal(err)
		}
		wTS := httptest.NewServer(wSrv.Handler())
		closers = append(closers, shutdown(wSrv, wTS))
		if err := wSrv.JoinFabric(coordTS.URL, wTS.URL); err != nil {
			tb.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var health struct {
			Fabric struct {
				Peers []struct {
					URL string `json:"url"`
				} `json:"peers"`
			} `json:"fabric"`
		}
		resp, err := http.Get(coordTS.URL + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
		}
		if err == nil && len(health.Fabric.Peers) == n {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatalf("fleet of %d never fully registered", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return coordTS.URL, func() {
		for i := len(closers) - 1; i >= 0; i-- { // workers first, coordinator last
			closers[i]()
		}
	}
}

// runFabricSweep boots a fresh n-worker fleet, submits the sweep to
// the coordinator, and long-polls every job to completion, returning
// the submit-to-drain wall time and each point's result document as
// the coordinator serialized it (the cross-fleet bit-identity witness).
func runFabricSweep(tb testing.TB, n int, specs []clustersmt.SyntheticSpec) (time.Duration, map[string]json.RawMessage) {
	tb.Helper()
	base, stop := startFabricFleet(tb, n)
	defer stop()

	type submitted struct{ app, id string }
	jobs := make([]submitted, 0, len(specs))
	start := time.Now()
	for _, spec := range specs {
		app := clustersmt.Synthetic(spec).Name
		body, _ := json.Marshal(service.JobSpec{App: app, Arch: clustersmt.SMT2.Name, Size: "test"})
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			tb.Fatalf("submit %s: status %d", app, resp.StatusCode)
		}
		var view struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			tb.Fatal(err)
		}
		jobs = append(jobs, submitted{app, view.ID})
	}
	results := make(map[string]json.RawMessage, len(jobs))
	for _, j := range jobs {
		results[j.app] = fabricAwaitJob(tb, base, j.id)
	}
	return time.Since(start), results
}

// fabricAwaitJob long-polls one job to a terminal state and returns its
// result document.
func fabricAwaitJob(tb testing.TB, base, id string) json.RawMessage {
	tb.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=5s")
		if err != nil {
			tb.Fatal(err)
		}
		var view struct {
			Status string          `json:"status"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			tb.Fatal(err)
		}
		switch view.Status {
		case service.StateDone:
			return view.Result
		case service.StateFailed:
			tb.Fatalf("job %s failed: %s", id, view.Error)
		}
	}
	tb.Fatalf("job %s never finished", id)
	return nil
}

// BenchmarkFabricScaleOut runs the 16-point cache-cold sweep through a
// coordinator fronting 1 vs 3 single-slot workers (an in-process fleet
// over loopback HTTP; both legs dispatch every job through the ring, so
// the comparison isolates fleet width from protocol overhead). Every op
// boots a fresh fleet, so no result is ever served from a cache. The
// ratio is pure scale-out and needs real host parallelism to show up —
// see the recorder entry's host_cpus/gomaxprocs fields.
func BenchmarkFabricScaleOut(b *testing.B) {
	specs := fabricSweepSpecs()
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runFabricSweep(b, n, specs)
			}
			b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// benchEntry is one BENCH_core.json record. The base/fast rate fields
// carry entry-specific JSON names (cycle-stepped vs event-driven for
// the fast-forward entry, scan vs wakeup for the issue-stage entry),
// so the file is written as raw messages assembled per entry.
type benchEntry struct {
	Benchmark string  `json:"benchmark"`
	Machine   string  `json:"machine"`
	Workload  string  `json:"workload"`
	SimCycles int64   `json:"sim_cycles"`
	Speedup   float64 `json:"speedup"`
}

// bestOf times fn reps times and returns the fastest wall time plus the
// run's simulated cycle count (deterministic across reps).
func bestOf(t *testing.T, reps int, fn func() (*clustersmt.Result, error)) (time.Duration, int64) {
	t.Helper()
	min := time.Duration(1<<63 - 1)
	var cycles int64
	for i := 0; i < reps; i++ {
		start := time.Now()
		res, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < min {
			min = d
		}
		cycles = res.Cycles
	}
	return min, cycles
}

// readBenchRecords parses an existing BENCH_core.json into raw records
// keyed by benchmark name, so the recorder can merge instead of blindly
// overwriting. A missing or unparseable file yields nil (fresh start).
func readBenchRecords(path string) map[string]json.RawMessage {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var arr []json.RawMessage
	if json.Unmarshal(data, &arr) != nil {
		return nil
	}
	out := map[string]json.RawMessage{}
	for _, raw := range arr {
		var e struct {
			Benchmark string `json:"benchmark"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Benchmark != "" {
			out[e.Benchmark] = raw
		}
	}
	return out
}

// hostShape is the subset of a host-parallelism-sensitive record (today
// BenchmarkFabricScaleOut) the recorder guard reads: how much host
// parallelism the measurement had.
type hostShape struct {
	HostCPUs   int `json:"host_cpus"`
	GoMaxProcs int `json:"gomaxprocs"`
}

// subFloorHost reports whether a measurement lacked the host
// parallelism its 2x floor assumes (>= 4 CPUs and >= 4 procs, one
// per simulated chip).
func subFloorHost(s hostShape) bool {
	return s.HostCPUs < 4 || s.GoMaxProcs < 4
}

// keepExistingRecord decides whether the recorder must keep an
// existing host-parallelism-sensitive record instead of replacing it: a
// number measured with real host parallelism must never be clobbered by
// a sub-floor re-run (a 1-CPU CI container would otherwise silently
// replace the honest multi-core speedup with host-starvation noise).
func keepExistingRecord(existing, fresh hostShape) bool {
	return !subFloorHost(existing) && subFloorHost(fresh)
}

// TestBenchHostShapeRecorderGuard pins the recorder's merge policy for
// the host-parallelism-sensitive entries.
func TestBenchHostShapeRecorderGuard(t *testing.T) {
	big := hostShape{HostCPUs: 8, GoMaxProcs: 8}
	floor := hostShape{HostCPUs: 4, GoMaxProcs: 4}
	oneCPU := hostShape{HostCPUs: 1, GoMaxProcs: 1}
	starved := hostShape{HostCPUs: 8, GoMaxProcs: 3}
	for _, tc := range []struct {
		name            string
		existing, fresh hostShape
		keep            bool
	}{
		{"sub-floor must not clobber a real measurement", big, oneCPU, true},
		{"the floor shape itself counts as real", floor, oneCPU, true},
		{"GOMAXPROCS-starved counts as sub-floor", big, starved, true},
		{"a real re-run replaces a real measurement", big, floor, false},
		{"a real re-run upgrades a sub-floor record", oneCPU, big, false},
		{"sub-floor may refresh sub-floor", oneCPU, oneCPU, false},
	} {
		if got := keepExistingRecord(tc.existing, tc.fresh); got != tc.keep {
			t.Errorf("%s: keepExistingRecord(%+v, %+v) = %v, want %v",
				tc.name, tc.existing, tc.fresh, got, tc.keep)
		}
	}

	dir := t.TempDir() + "/bench.json"
	if got := readBenchRecords(dir); got != nil {
		t.Errorf("missing file: got %v, want nil", got)
	}
	if err := os.WriteFile(dir, []byte(`[{"benchmark":"A","speedup":2},{"benchmark":"B"},{"speedup":1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs := readBenchRecords(dir)
	if len(recs) != 2 || recs["A"] == nil || recs["B"] == nil {
		t.Errorf("parsed records %v, want exactly A and B", recs)
	}
	if err := os.WriteFile(dir, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readBenchRecords(dir); got != nil {
		t.Errorf("garbage file: got %v, want nil", got)
	}
}

// TestWriteBenchCoreJSON records the fast-forward, wakeup, memory-path,
// observability, checkpoint-forking and fabric
// scale-out measurements in BENCH_core.json (run via `make bench`;
// gated so ordinary test runs stay hermetic and fast). The recorder
// merges with the existing file for the host-parallelism-sensitive
// entries: see keepExistingRecord.
func TestWriteBenchCoreJSON(t *testing.T) {
	if os.Getenv("WRITE_BENCH") == "" {
		t.Skip("set WRITE_BENCH=1 (make bench) to write BENCH_core.json")
	}
	const reps = 5

	// Entry 1: quiescence fast-forward on the stall-heavy workload.
	ffStepped, ffCycles := bestOf(t, reps, func() (*clustersmt.Result, error) { return runStallHeavy(false) })
	ffEvent, _ := bestOf(t, reps, func() (*clustersmt.Result, error) { return runStallHeavy(true) })
	ffReport := struct {
		benchEntry
		SteppedCyclesSec float64 `json:"cycle_stepped_sim_cycles_per_sec"`
		EventCyclesSec   float64 `json:"event_driven_sim_cycles_per_sec"`
	}{
		benchEntry: benchEntry{
			Benchmark: "BenchmarkCoreFastForward",
			Machine:   clustersmt.HighEnd(clustersmt.SMT2).Name,
			Workload:  "pchase (serial remote-L2 pointer chase, 31 threads at a barrier)",
			SimCycles: ffCycles,
			Speedup:   ffStepped.Seconds() / ffEvent.Seconds(),
		},
		SteppedCyclesSec: float64(ffCycles) / ffStepped.Seconds(),
		EventCyclesSec:   float64(ffCycles) / ffEvent.Seconds(),
	}
	if ffReport.Speedup < 1.5 {
		t.Fatalf("event-driven speedup %.2fx below the 1.5x floor", ffReport.Speedup)
	}

	// Entry 2: wakeup issue stage on the compute-bound workload. The
	// fast-forward must stay disengaged — the ticker thread leaves no
	// quiescent cycles to skip, so the issue stage is the whole story.
	if sim, err := newComputeBound(true); err != nil {
		t.Fatal(err)
	} else if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	} else if sim.FastForwarded() != 0 {
		t.Fatalf("fast-forward skipped %d cycles on the compute-bound workload; wakeup measurement would be confounded", sim.FastForwarded())
	}
	wkScan, wkCycles := bestOf(t, reps, func() (*clustersmt.Result, error) { return runComputeBound(false) })
	wkWakeup, _ := bestOf(t, reps, func() (*clustersmt.Result, error) { return runComputeBound(true) })
	wkReport := struct {
		benchEntry
		ScanCyclesSec   float64 `json:"scan_sim_cycles_per_sec"`
		WakeupCyclesSec float64 `json:"wakeup_sim_cycles_per_sec"`
	}{
		benchEntry: benchEntry{
			Benchmark: "BenchmarkCoreWakeup",
			Machine:   clustersmt.HighEnd(clustersmt.SMT1).Name,
			Workload:  "fdivchain (8 serial unpipelined-Fdiv chains filling four 128-entry windows + 1 every-cycle ticker thread, no quiescent cycles)",
			SimCycles: wkCycles,
			Speedup:   wkScan.Seconds() / wkWakeup.Seconds(),
		},
		ScanCyclesSec:   float64(wkCycles) / wkScan.Seconds(),
		WakeupCyclesSec: float64(wkCycles) / wkWakeup.Seconds(),
	}
	if wkReport.Speedup < 1.5 {
		t.Fatalf("wakeup speedup %.2fx below the 1.5x floor", wkReport.Speedup)
	}

	// Entry 3: memory-path fast paths on the memory-bound workload.
	memRef, memCycles := bestOf(t, reps, func() (*clustersmt.Result, error) { return runMemBound(true) })
	memFast, _ := bestOf(t, reps, func() (*clustersmt.Result, error) { return runMemBound(false) })
	memReport := struct {
		benchEntry
		ReferenceCyclesSec float64 `json:"reference_sim_cycles_per_sec"`
		FastpathCyclesSec  float64 `json:"fastpath_sim_cycles_per_sec"`
	}{
		benchEntry: benchEntry{
			Benchmark: "BenchmarkCoreMemory",
			Machine:   memBoundMachine().Name,
			Workload:  "memstride (31 threads streaming remote lines through saturated MSHRs + 1 L1-spilling pointer chase, shrunken 8KB L1 / 64KB L2)",
			SimCycles: memCycles,
			Speedup:   memRef.Seconds() / memFast.Seconds(),
		},
		ReferenceCyclesSec: float64(memCycles) / memRef.Seconds(),
		FastpathCyclesSec:  float64(memCycles) / memFast.Seconds(),
	}
	if memReport.Speedup < 1.5 {
		t.Fatalf("memory fast-path speedup %.2fx below the 1.5x floor", memReport.Speedup)
	}

	// Entry 4: observability overhead. Unlike the other entries this one
	// bounds a cost rather than proving a speedup: sampling every 10k
	// cycles must stay cheap, and the disabled leg differs from a
	// pre-observability build by one nil check per cycle.
	obsOff, obsCycles := bestOf(t, reps, func() (*clustersmt.Result, error) { return runObsOverhead(false) })
	obsOn, _ := bestOf(t, reps, func() (*clustersmt.Result, error) { return runObsOverhead(true) })
	obsReport := struct {
		benchEntry
		DisabledCyclesSec float64 `json:"disabled_sim_cycles_per_sec"`
		SampledCyclesSec  float64 `json:"sampled_sim_cycles_per_sec"`
		OverheadPct       float64 `json:"sampling_overhead_pct"`
	}{
		benchEntry: benchEntry{
			Benchmark: "BenchmarkObsOverhead",
			Machine:   clustersmt.LowEnd(clustersmt.SMT2).Name,
			Workload:  "ocean (reference input; one metrics frame per 10k cycles vs observability disabled)",
			SimCycles: obsCycles,
			Speedup:   obsOff.Seconds() / obsOn.Seconds(),
		},
		DisabledCyclesSec: float64(obsCycles) / obsOff.Seconds(),
		SampledCyclesSec:  float64(obsCycles) / obsOn.Seconds(),
		OverheadPct:       100 * (obsOn.Seconds() - obsOff.Seconds()) / obsOff.Seconds(),
	}
	if obsReport.Speedup < 0.5 {
		t.Fatalf("sampling costs %.2fx throughput; observability must stay cheap", 1/obsReport.Speedup)
	}

	// Entry 5: checkpoint/COW forking on a warm-up-dominated sweep. The
	// scratch leg re-simulates the shared warm-up sixteen times; the
	// fork leg warms one parent to the probed checkpoint and forks every
	// grid point from it. Unlike the fabric entry this speedup is pure
	// warm-up amortization — no host parallelism involved — so the 2x
	// floor is enforced unconditionally, and so is bit-identity between
	// the two legs.
	const sweepReps = 3
	sweepSpecs := sweepForkSpecs()
	warmAt, err := sweepForkWarmTarget(sweepSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	timeSweep := func(warm int64) (time.Duration, []*clustersmt.Result, int64) {
		best := time.Duration(1<<63 - 1)
		var results []*clustersmt.Result
		var forks int64
		for i := 0; i < sweepReps; i++ {
			start := time.Now()
			res, f, err := runForkSweep(sweepSpecs, warm)
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			results, forks = res, f
		}
		return best, results, forks
	}
	swScratch, scratchRes, _ := timeSweep(0)
	swFork, forkRes, forks := timeSweep(warmAt)
	if !reflect.DeepEqual(scratchRes, forkRes) {
		t.Fatal("forked sweep results differ from scratch; checkpoint forking is unsound")
	}
	if forks != int64(len(sweepSpecs)) {
		t.Fatalf("%d of %d sweep points forked from the checkpoint", forks, len(sweepSpecs))
	}
	var sweepCycles int64
	for _, r := range scratchRes {
		sweepCycles += r.Cycles
	}
	sweepReport := struct {
		benchEntry
		ScratchSecs     float64 `json:"scratch_secs"`
		ForkSecs        float64 `json:"fork_secs"`
		SweepPoints     int     `json:"sweep_points"`
		CheckpointCycle int64   `json:"checkpoint_cycle"`
	}{
		benchEntry: benchEntry{
			Benchmark: "BenchmarkSweepFork",
			Machine:   clustersmt.LowEnd(clustersmt.SMT2).Name,
			Workload:  fmt.Sprintf("16-point synth sweep (ChainLen x IndepOps grid sharing a %d-iteration warm-up prefix; every point from scratch vs COW-forked from one checkpoint)", int64(sweepForkWarmupIters)),
			SimCycles: sweepCycles,
			Speedup:   swScratch.Seconds() / swFork.Seconds(),
		},
		ScratchSecs:     swScratch.Seconds(),
		ForkSecs:        swFork.Seconds(),
		SweepPoints:     len(sweepSpecs),
		CheckpointCycle: warmAt,
	}
	if sweepReport.Speedup < 2.0 {
		t.Fatalf("sweep-fork speedup %.2fx below the 2x floor (%s scratch vs %s forked)", sweepReport.Speedup, swScratch, swFork)
	}

	// Entry 6: fabric scale-out on the cache-cold sweep. This speedup is
	// host parallelism (3 single-slot workers vs 1, all in this
	// process), so the 2x floor is enforced only on hosts with >= 4
	// CPUs and procs — three concurrent
	// simulations plus coordinator dispatch need somewhere to run.
	// Bit-identity between fleet sizes is enforced everywhere: the
	// result documents must match byte for byte.
	const fabricReps = 2
	fabricSpecs := fabricSweepSpecs()
	timeFleet := func(n int) (time.Duration, map[string]json.RawMessage) {
		best := time.Duration(1<<63 - 1)
		var results map[string]json.RawMessage
		for i := 0; i < fabricReps; i++ {
			d, res := runFabricSweep(t, n, fabricSpecs)
			if d < best {
				best = d
			}
			results = res
		}
		return best, results
	}
	fabSingle, singleRes := timeFleet(1)
	fabFleet, fleetRes := timeFleet(3)
	if len(singleRes) != len(fabricSpecs) || len(fleetRes) != len(fabricSpecs) {
		t.Fatalf("fabric sweep returned %d/%d of %d results", len(singleRes), len(fleetRes), len(fabricSpecs))
	}
	var fabCycles int64
	for app, raw := range singleRes {
		if !bytes.Equal(raw, fleetRes[app]) {
			t.Fatalf("fabric result for %s differs between the 1-worker and 3-worker fleets", app)
		}
		var res struct {
			Cycles int64 `json:"cycles"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		fabCycles += res.Cycles
	}
	fabReport := struct {
		benchEntry
		SingleWorkerSecs float64 `json:"single_worker_secs"`
		ThreeWorkerSecs  float64 `json:"three_worker_secs"`
		SweepPoints      int     `json:"sweep_points"`
		HostCPUs         int     `json:"host_cpus"`
		GoMaxProcs       int     `json:"gomaxprocs"`
		Note             string  `json:"note,omitempty"`
	}{
		benchEntry: benchEntry{
			Benchmark: "BenchmarkFabricScaleOut",
			Machine:   clustersmt.LowEnd(clustersmt.SMT2).Name,
			Workload:  "16-point cache-cold synth sweep dispatched by a fabric coordinator to single-slot clusterd workers over loopback HTTP (3 workers vs 1)",
			SimCycles: fabCycles,
			Speedup:   fabSingle.Seconds() / fabFleet.Seconds(),
		},
		SingleWorkerSecs: fabSingle.Seconds(),
		ThreeWorkerSecs:  fabFleet.Seconds(),
		SweepPoints:      len(fabricSpecs),
		HostCPUs:         runtime.NumCPU(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
	}
	if fabReport.GoMaxProcs >= 4 && fabReport.HostCPUs >= 4 {
		if fabReport.Speedup < 2.0 {
			t.Fatalf("fabric scale-out %.2fx below the 2x floor with %d procs on %d CPUs (%s single vs %s fleet)",
				fabReport.Speedup, fabReport.GoMaxProcs, fabReport.HostCPUs, fabSingle, fabFleet)
		}
	} else {
		fabReport.Note = fmt.Sprintf("sub-floor host (%d CPUs, GOMAXPROCS=%d): the 2x scale-out floor needs >= 4 of each; speedup recorded unenforced", fabReport.HostCPUs, fabReport.GoMaxProcs)
		t.Logf("host has %d CPUs / GOMAXPROCS=%d; the 2x scale-out floor needs >= 4 of each, recording %.2fx unenforced", fabReport.HostCPUs, fabReport.GoMaxProcs, fabReport.Speedup)
	}
	fabRecord := any(fabReport)
	freshShape := hostShape{HostCPUs: fabReport.HostCPUs, GoMaxProcs: fabReport.GoMaxProcs}
	if raw, ok := readBenchRecords("BENCH_core.json")["BenchmarkFabricScaleOut"]; ok {
		var old hostShape
		if json.Unmarshal(raw, &old) == nil && keepExistingRecord(old, freshShape) {
			t.Logf("keeping the existing BenchmarkFabricScaleOut record (measured with %d CPUs / GOMAXPROCS=%d); this sub-floor host must not overwrite it", old.HostCPUs, old.GoMaxProcs)
			fabRecord = raw
		}
	}

	out, err := json.MarshalIndent([]any{ffReport, wkReport, memReport, obsReport, sweepReport, fabRecord}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_core.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("fast-forward %.2fx (%s stepped, %s event-driven over %d cycles); wakeup %.2fx (%s scan, %s wakeup over %d cycles); memory %.2fx (%s reference, %s fastpath over %d cycles); obs sampling %+.1f%% (%s disabled, %s sampled over %d cycles); sweep-fork %.2fx (%s scratch, %s forked, checkpoint at cycle %d); fabric scale-out %.2fx (%s with 1 worker, %s with 3)",
		ffReport.Speedup, ffStepped, ffEvent, ffCycles,
		wkReport.Speedup, wkScan, wkWakeup, wkCycles,
		memReport.Speedup, memRef, memFast, memCycles,
		obsReport.OverheadPct, obsOff, obsOn, obsCycles,
		sweepReport.Speedup, swScratch, swFork, warmAt,
		fabReport.Speedup, fabSingle, fabFleet)
}

// BenchmarkMultiprogram measures multiprogrammed throughput: eight
// independent sequential jobs (the six applications plus two synthetic
// fillers) on each 8-context organization — the workload class of the
// SMT studies the paper builds on.
func BenchmarkMultiprogram(b *testing.B) {
	mix := func() []*clustersmt.Program {
		var js []*clustersmt.Program
		for _, w := range clustersmt.Workloads() {
			js = append(js, w.Build(1, 1, clustersmt.SizeTest))
		}
		js = append(js,
			clustersmt.Synthetic(clustersmt.SyntheticSpec{IndepOps: 6, Iters: 1024}).Build(1, 1, clustersmt.SizeTest),
			clustersmt.Synthetic(clustersmt.SyntheticSpec{ChainLen: 6, Iters: 1024}).Build(1, 1, clustersmt.SizeTest),
		)
		return js
	}
	for _, arch := range []clustersmt.Arch{clustersmt.FA8, clustersmt.SMT4, clustersmt.SMT2, clustersmt.SMT1} {
		b.Run(arch.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := clustersmt.SimulateMultiprogram(clustersmt.LowEnd(arch), mix())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "cycles")
			}
		})
	}
}
