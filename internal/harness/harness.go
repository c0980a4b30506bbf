// Package harness drives the paper's experiments: it runs (application
// × architecture × machine) simulations, caches shared runs, measures
// the Figure 6 placements, and renders the Figure 4/5/7/8 execution-
// time breakdowns as text.
//
// Individual simulations are strictly deterministic; each runs on a
// single goroutine and the harness runs independent simulations
// concurrently across host cores.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/model"
	"clustersmt/internal/obs"
	"clustersmt/internal/stats"
	"clustersmt/internal/workloads"
)

// FAFigureArchs is the architecture set of Figures 4 and 5.
var FAFigureArchs = []config.Arch{config.FA8, config.FA4, config.FA2, config.FA1, config.SMT2}

// SMTFigureArchs is the architecture set of Figures 7 and 8.
var SMTFigureArchs = []config.Arch{config.SMT8, config.SMT4, config.SMT2, config.SMT1}

// RemoteFunc is the Suite.Remote hook signature: given the run's
// identity in wire-expressible form (canonical app name, Table 2
// architecture, machine class — the suite supplies its own input
// size), it may produce the run's outcome from somewhere else (a peer
// cache, a fleet dispatch). handled=false means "no remote answer,
// simulate locally"; handled=true with a non-nil err is a definitive
// remote failure (including ctx cancellation, which must be returned
// errors.Is-compatible with ctx.Err()).
type RemoteFunc func(ctx context.Context, app string, arch config.Arch, highEnd bool) (res *core.Result, handled bool, err error)

type runKey struct {
	app      string
	clusters int
	issue    int
	tpc      int
	chips    int
	// Normalized allocation policy: two policies must never share a
	// cached result (the canonical machine encoding makes the same
	// distinction for the persistent service cache).
	policy string
	epoch  int64
}

// inflight is one simulation's cache slot, registered before the run
// starts (singleflight): the first caller for a key owns the run and
// closes done when res/err are set; later callers wait on done. Errors
// are cached like results, so a failing configuration is simulated
// once, not once per figure that includes it.
type inflight struct {
	done chan struct{}
	res  *core.Result
	err  error
}

// Suite runs and caches simulations at a fixed input size.
type Suite struct {
	Size workloads.Size
	// MaxCycles bounds each simulation (0 = core default).
	MaxCycles int64

	// AllocPolicy selects the thread-to-cluster allocation policy for
	// every simulation this suite runs ("" or "static" = the paper's
	// fixed seed placement; see internal/alloc for the registry).
	// AllocEpoch is the dynamic policies' epoch length in cycles (0 =
	// config.DefaultAllocEpoch). Set before the first Run.
	AllocPolicy string
	AllocEpoch  int64
	// MetricsInterval > 0 enables interval metrics on every simulation
	// (one obs.Frame per MetricsInterval cycles, retained in a ring of
	// MetricsRingCap frames — obs.DefaultRingCap when 0). Sampling is
	// read-only: results, including cache hits shared across figures,
	// are bit-identical with metrics on or off.
	MetricsInterval int64
	MetricsRingCap  int
	// OnFrame, when set, receives every frame of every simulation as
	// the run progresses — the progress heartbeat. Setting it without
	// MetricsInterval samples at core.DefaultMetricsInterval. It is
	// called from concurrent simulation goroutines and must be safe for
	// concurrent use; it must not block for long (it runs on the
	// simulation's critical path).
	OnFrame func(app, machine string, f obs.Frame)

	// Remote, when non-nil, is consulted by the singleflight owner of
	// each uncached run before it simulates anything — the scale-out
	// fabric's hook. Returning handled=true makes (res, err) the run's
	// outcome, cached exactly like a local simulation's (so a fleet
	// dispatch or peer-cache hit is still deduplicated across
	// overlapping figures, and a remote cancellation follows the
	// cancel-retry path). Returning handled=false falls back to the
	// local scratch/warm-start path — the hook must degrade, never
	// fail, on fabric trouble. Because the hook runs on the owner side
	// of the singleflight, a burst of identical requests costs one
	// remote lookup, and remote-served runs never occupy a local
	// simulation slot. Set before the first Run.
	Remote RemoteFunc

	// WarmupCycles > 0 enables checkpoint-based warm-up sharing: for
	// workloads whose programs declare a shared prefix
	// (prog.Builder.MarkPrefix), the suite runs one parent simulation
	// per (machine, prefix) to this cycle, checkpoints it, and forks
	// every variant from the warmed parent (core.Simulator.ForkProgram)
	// instead of simulating each from cycle zero. Results stay
	// bit-identical to scratch runs; the win is wall clock when the
	// warm-up dominates and many variants share it. Workloads without a
	// prefix, and parents whose warm-up ends before this cycle, fall
	// back to scratch silently. Set before the first Run.
	WarmupCycles int64
	// Snapshots, when non-nil, persists warmed parent checkpoints so
	// later processes restore them instead of re-running the warm-up
	// (the serving subsystem backs this with its cache directory). Only
	// consulted when WarmupCycles > 0. Set before the first Run.
	Snapshots SnapshotStore

	// OnSimulate, when set, is called after every simulation this suite
	// actually executes (singleflight owners only — cache hits, shares
	// and remote-served runs never fire it) with the run's identity,
	// wall-clock duration, and outcome. ctx is the owning caller's
	// context — the serving layer reads its trace ID to attribute the
	// simulate span. Must be safe for concurrent use and read-only with
	// respect to results. Set before the first Run.
	OnSimulate func(ctx context.Context, app, machine string, highEnd bool, d time.Duration, err error)

	mu    sync.Mutex
	cache map[runKey]*inflight
	sem   chan struct{}

	warmMu       sync.Mutex
	warm         map[warmKey]*warmParent
	warmForks    atomic.Int64
	warmRestores atomic.Int64
	sims         atomic.Int64

	allocMigrations atomic.Int64
	allocEpochs     atomic.Int64

	obsMu sync.Mutex
	rings map[string]*obs.Ring // "app@machine" -> retained frames
}

// NewSuite returns a Suite at the given input size, running up to
// GOMAXPROCS simulations concurrently.
func NewSuite(size workloads.Size) *Suite {
	return &Suite{
		Size:  size,
		cache: make(map[runKey]*inflight),
		sem:   make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// SetParallelism bounds the number of simulations the suite runs
// concurrently (cmd/sweep's -parallel flag). It must be called before
// the first Run; changing the bound under in-flight runs would leak or
// deadlock semaphore slots, so it panics once anything is cached.
func (s *Suite) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cache) > 0 {
		panic("harness: SetParallelism after runs have started")
	}
	s.sem = make(chan struct{}, n)
}

func key(app string, arch config.Arch, chips int, a config.AllocConfig) runKey {
	return runKey{app: app, clusters: arch.Clusters, issue: arch.IssueWidth,
		tpc: arch.ThreadsPerCluster, chips: chips, policy: a.Policy, epoch: a.Epoch}
}

// machine resolves the suite's machine for one run: the paper preset
// plus the suite's allocation policy.
func (s *Suite) machine(arch config.Arch, highEnd bool) config.Machine {
	m := config.LowEnd(arch)
	if highEnd {
		m = config.HighEnd(arch)
	}
	m.Alloc = config.AllocConfig{Policy: s.AllocPolicy, Epoch: s.AllocEpoch}
	return m
}

// Run simulates app on arch (low-end: 1 chip; high-end: 4 chips),
// returning a cached result when the same physical configuration was
// already run (FA8 and SMT8 share results by construction).
func (s *Suite) Run(app workloads.Workload, arch config.Arch, highEnd bool) (*core.Result, error) {
	return s.RunContext(context.Background(), app, arch, highEnd)
}

// canceled reports whether err is a cancellation rather than a real
// simulation failure. Cancellations are never cached: the canceling
// caller's entry is removed so the next identical request re-runs.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, core.ErrInterrupted)
}

// RunContext is Run with caller cancellation: when ctx is done, the
// in-flight simulation aborts promptly (core.Simulator.Interrupt) and
// RunContext returns ctx's error. A canceled run is removed from the
// cache rather than cached, so it cannot poison later identical
// requests; waiters that were sharing the canceled run retry and one of
// them becomes the new owner. Real simulation errors are still cached
// like results (a failing configuration simulates once, not once per
// figure that includes it).
func (s *Suite) RunContext(ctx context.Context, app workloads.Workload, arch config.Arch, highEnd bool) (*core.Result, error) {
	m := s.machine(arch, highEnd)
	k := key(app.Name, arch, m.Chips, m.Alloc.Normalize())

	for {
		s.mu.Lock()
		fl, ok := s.cache[k]
		if ok {
			s.mu.Unlock()
			// Another caller owns (or already finished) this run; wait
			// for it without holding a semaphore slot.
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("harness: %s on %s: %w", app.Name, m.Name, ctx.Err())
			}
			if fl.err != nil && canceled(fl.err) {
				// The owner was canceled (and removed the entry before
				// closing done); this caller is still live, so retry —
				// it may become the new owner.
				continue
			}
			return fl.res, fl.err
		}
		fl = &inflight{done: make(chan struct{})}
		s.cache[k] = fl
		s.mu.Unlock()

		fl.res, fl.err = s.runShared(ctx, app, arch, highEnd, m)
		if fl.err != nil && canceled(fl.err) {
			s.mu.Lock()
			delete(s.cache, k)
			s.mu.Unlock()
		}
		close(fl.done)
		return fl.res, fl.err
	}
}

// runShared is the owner half of RunContext's singleflight: it gives
// the Remote hook first claim on the run — ahead of the semaphore, so
// remote-served runs never hold a local simulation slot — and falls
// back to the local path when the hook declines.
func (s *Suite) runShared(ctx context.Context, app workloads.Workload, arch config.Arch, highEnd bool, m config.Machine) (*core.Result, error) {
	if s.Remote != nil {
		res, handled, err := s.Remote(ctx, app.Name, arch, highEnd)
		if handled {
			if err != nil {
				return nil, fmt.Errorf("harness: %s on %s: %w", app.Name, m.Name, err)
			}
			return res, nil
		}
	}
	return s.runOwned(ctx, app, m)
}

// runOwned acquires a semaphore slot and simulates; it is the owner
// half of RunContext's singleflight.
func (s *Suite) runOwned(ctx context.Context, app workloads.Workload, m config.Machine) (*core.Result, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("harness: %s on %s: %w", app.Name, m.Name, ctx.Err())
	}
	defer func() { <-s.sem }()
	return s.simulate(ctx, app, m)
}

// simulate performs one uncached simulation, starting from a shared
// warmed checkpoint when warm-up sharing is enabled and applicable
// (see warmup.go) and from cycle zero otherwise.
func (s *Suite) simulate(ctx context.Context, app workloads.Workload, m config.Machine) (*core.Result, error) {
	p := app.Build(m.Threads(), m.Chips, s.Size)
	var sim *core.Simulator
	var warmed bool
	var err error
	pol := m.Alloc.Normalize().Policy
	if pol == "" {
		// Warmed checkpoints are shared across runs with identical
		// machine hashes under the seed placement; a non-static policy
		// changes placement (and thus warm-up) itself, so those runs
		// always start cold.
		sim, warmed, err = s.warmStart(ctx, m, p)
		if err != nil {
			return nil, fmt.Errorf("harness: %s on %s: %w", app.Name, m.Name, err)
		}
	}
	if sim == nil {
		sim, err = core.New(m, p)
		if err != nil {
			return nil, fmt.Errorf("harness: %s on %s: %w", app.Name, m.Name, err)
		}
		if pol == "oracle" {
			if err := s.oracleAssign(ctx, sim, m, app); err != nil {
				return nil, fmt.Errorf("harness: %s on %s: oracle search: %w", app.Name, m.Name, err)
			}
		}
	}
	if s.MaxCycles > 0 {
		sim.MaxCycles = s.MaxCycles
	}
	sim.Interrupt = ctx.Done()
	if s.MetricsInterval > 0 || s.OnFrame != nil {
		// A forked child already carries the warmed parent's sampler —
		// warm-up frames included, so its ring matches a scratch run's.
		// Re-enabling would reset the sampling phase mid-run; only
		// attach the per-run heartbeat and retain the ring.
		ring := sim.Metrics()
		if !warmed {
			ring = sim.EnableMetrics(s.MetricsInterval, s.MetricsRingCap)
		}
		if ring != nil {
			if s.OnFrame != nil {
				appName, machine := app.Name, m.Name
				sim.OnInterval(func(f obs.Frame) { s.OnFrame(appName, machine, f) })
			}
			s.obsMu.Lock()
			if s.rings == nil {
				s.rings = make(map[string]*obs.Ring)
			}
			s.rings[app.Name+"@"+m.Name] = ring
			s.obsMu.Unlock()
		}
	}
	s.sims.Add(1)
	t0 := time.Now()
	r, err := sim.Run()
	if s.OnSimulate != nil {
		s.OnSimulate(ctx, app.Name, m.Name, m.Chips > 1, time.Since(t0), err)
	}
	if err != nil {
		if errors.Is(err, core.ErrInterrupted) && ctx.Err() != nil {
			// Surface the caller's cancellation (errors.Is-compatible
			// with context.Canceled / DeadlineExceeded) rather than the
			// core-internal interrupt.
			return nil, fmt.Errorf("harness: %s on %s: %w", app.Name, m.Name, ctx.Err())
		}
		return nil, fmt.Errorf("harness: %s on %s: %w", app.Name, m.Name, err)
	}
	s.allocMigrations.Add(int64(r.AllocMigrations))
	s.allocEpochs.Add(int64(r.AllocEpochs))
	return r, nil
}

// Oracle-search budget: each candidate static assignment is profiled
// for this many cycles, and the canonical enumeration is capped at
// this many candidates (core.SearchStatic).
const (
	oraclePrefixCycles  = 20_000
	oracleMaxCandidates = 64
)

// oracleAssign replaces sim's seed placement with the best static
// assignment found by profiling every canonical assignment of the same
// workload for a short prefix under the static policy
// (core.SearchStatic). The throwaway search runs are sequential and
// abort with ctx.
func (s *Suite) oracleAssign(ctx context.Context, sim *core.Simulator, m config.Machine, app workloads.Workload) error {
	sm := m
	sm.Alloc = config.AllocConfig{}
	mk := func() (*core.Simulator, error) {
		probe, err := core.New(sm, app.Build(sm.Threads(), sm.Chips, s.Size))
		if err != nil {
			return nil, err
		}
		probe.Interrupt = ctx.Done()
		return probe, nil
	}
	best, _, err := core.SearchStatic(mk, oraclePrefixCycles, oracleMaxCandidates)
	if err != nil {
		return err
	}
	return sim.SetAssignment(best)
}

// Simulations returns how many simulations this suite actually ran on
// this host (scratch runs and forked-child runs both count; cache
// hits, singleflight shares, and remote-served runs do not). It is the
// counter the fabric's federated-cache tests and /healthz use to prove
// "zero simulations ran" on a fully cached resubmission.
func (s *Suite) Simulations() int64 { return s.sims.Load() }

// AllocMigrations returns the total number of thread migrations the
// allocation subsystem performed across every simulation this suite
// ran locally (always zero under the static policy).
func (s *Suite) AllocMigrations() int64 { return s.allocMigrations.Load() }

// AllocEpochs returns the total number of allocation epoch boundaries
// evaluated across every simulation this suite ran locally.
func (s *Suite) AllocEpochs() int64 { return s.allocEpochs.Load() }

// Metrics returns the retained frame ring for the given simulated run
// ("app@machine", as listed by MetricsRuns), or nil. Note that cached
// runs simulate once: FA8 and SMT8 share one physical configuration
// and hence one ring.
func (s *Suite) Metrics(run string) *obs.Ring {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	return s.rings[run]
}

// MetricsRuns lists the runs with retained metrics, sorted.
func (s *Suite) MetricsRuns() []string {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	runs := make([]string, 0, len(s.rings))
	for k := range s.rings {
		runs = append(runs, k)
	}
	sort.Strings(runs)
	return runs
}

// WriteMetricsCSV exports one run's frames ("app@machine") as CSV.
func (s *Suite) WriteMetricsCSV(w io.Writer, run string) error {
	ring := s.Metrics(run)
	if ring == nil {
		return fmt.Errorf("harness: no metrics retained for %q", run)
	}
	return ring.WriteCSV(w)
}

// WriteMetricsJSON exports one run's frames ("app@machine") as JSON.
func (s *Suite) WriteMetricsJSON(w io.Writer, run string) error {
	ring := s.Metrics(run)
	if ring == nil {
		return fmt.Errorf("harness: no metrics retained for %q", run)
	}
	return ring.WriteJSON(w)
}

// RunMatrix runs every (app × arch) pair concurrently and returns the
// results indexed [app][arch.Name].
func (s *Suite) RunMatrix(apps []workloads.Workload, archs []config.Arch, highEnd bool) (map[string]map[string]*core.Result, error) {
	return s.RunMatrixContext(context.Background(), apps, archs, highEnd)
}

// RunMatrixContext is RunMatrix with caller cancellation: once ctx is
// done, in-flight simulations abort promptly and the matrix returns the
// cancellation error. It is safe for concurrent callers — overlapping
// matrices share cached runs through the singleflight.
func (s *Suite) RunMatrixContext(ctx context.Context, apps []workloads.Workload, archs []config.Arch, highEnd bool) (map[string]map[string]*core.Result, error) {
	type item struct {
		app  workloads.Workload
		arch config.Arch
	}
	var items []item
	for _, a := range apps {
		for _, ar := range archs {
			items = append(items, item{a, ar})
		}
	}
	out := make(map[string]map[string]*core.Result)
	for _, a := range apps {
		out[a.Name] = make(map[string]*core.Result)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, it := range items {
		wg.Add(1)
		go func(it item) {
			defer wg.Done()
			r, err := s.RunContext(ctx, it.app, it.arch, highEnd)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			out[it.app.Name][it.arch.Name] = r
		}(it)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Row is one bar of a figure: an (app, arch) cell.
type Row struct {
	App        string
	Arch       string
	Cycles     int64
	Normalized float64 // execution time relative to the figure baseline
	Breakdown  [stats.NumCategories]float64
}

// Figure is one of the paper's execution-time charts in tabular form.
type Figure struct {
	Title    string
	Baseline string // arch name each app's bars are normalized to
	Apps     []string
	Archs    []string
	Rows     []Row // len(Apps) × len(Archs), app-major
}

// Get returns the row for (app, arch); it panics on unknown names
// (figures are built internally with fixed sets).
func (f *Figure) Get(app, arch string) Row {
	for _, r := range f.Rows {
		if r.App == app && r.Arch == arch {
			return r
		}
	}
	panic(fmt.Sprintf("harness: figure %q has no row (%s, %s)", f.Title, app, arch))
}

// Best returns the architecture with the fewest cycles for app.
func (f *Figure) Best(app string) string {
	best, bestCycles := "", int64(0)
	for _, r := range f.Rows {
		if r.App != app {
			continue
		}
		if best == "" || r.Cycles < bestCycles {
			best, bestCycles = r.Arch, r.Cycles
		}
	}
	return best
}

// BestFA returns the best fixed-assignment architecture for app
// (excludes SMT rows).
func (f *Figure) BestFA(app string) string {
	best, bestCycles := "", int64(0)
	for _, r := range f.Rows {
		if r.App != app || !strings.HasPrefix(r.Arch, "FA") {
			continue
		}
		if best == "" || r.Cycles < bestCycles {
			best, bestCycles = r.Arch, r.Cycles
		}
	}
	return best
}

// Render formats the figure the way the paper's charts read: one block
// per application, one line per architecture with the normalized
// execution time and the slot breakdown.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (execution time normalized to %s = 100)\n", f.Title, f.Baseline)
	cats := stats.AllCategories()
	fmt.Fprintf(&b, "%-8s %-5s %6s %9s ", "app", "arch", "norm", "cycles")
	for _, c := range cats {
		fmt.Fprintf(&b, "%7s", c)
	}
	b.WriteString("\n")
	for _, app := range f.Apps {
		for _, arch := range f.Archs {
			r := f.Get(app, arch)
			fmt.Fprintf(&b, "%-8s %-5s %6.0f %9d ", r.App, r.Arch, r.Normalized, r.Cycles)
			for _, c := range cats {
				fmt.Fprintf(&b, "%6.1f%%", 100*r.Breakdown[c])
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// buildFigure assembles a Figure from a result matrix.
func buildFigure(title string, apps []workloads.Workload, archs []config.Arch,
	res map[string]map[string]*core.Result) *Figure {
	f := &Figure{Title: title, Baseline: archs[0].Name}
	for _, a := range apps {
		f.Apps = append(f.Apps, a.Name)
	}
	for _, ar := range archs {
		f.Archs = append(f.Archs, ar.Name)
	}
	for _, a := range apps {
		base := res[a.Name][archs[0].Name]
		for _, ar := range archs {
			r := res[a.Name][ar.Name]
			row := Row{
				App:        a.Name,
				Arch:       ar.Name,
				Cycles:     r.Cycles,
				Normalized: 100 * float64(r.Cycles) / float64(base.Cycles),
			}
			row.Breakdown = r.Slots.Fractions()
			f.Rows = append(f.Rows, row)
		}
	}
	return f
}

// Figure4 reproduces Figure 4: FA processors vs the clustered SMT2 on
// the low-end machine.
func (s *Suite) Figure4() (*Figure, error) { return s.Figure4Context(context.Background()) }

// Figure4Context is Figure4 with caller cancellation.
func (s *Suite) Figure4Context(ctx context.Context) (*Figure, error) {
	apps := workloads.All()
	res, err := s.RunMatrixContext(ctx, apps, FAFigureArchs, false)
	if err != nil {
		return nil, err
	}
	return buildFigure("Figure 4: FA vs clustered SMT, low-end machine", apps, FAFigureArchs, res), nil
}

// Figure5 reproduces Figure 5: the same comparison on the 4-chip
// high-end machine.
func (s *Suite) Figure5() (*Figure, error) { return s.Figure5Context(context.Background()) }

// Figure5Context is Figure5 with caller cancellation.
func (s *Suite) Figure5Context(ctx context.Context) (*Figure, error) {
	apps := workloads.All()
	res, err := s.RunMatrixContext(ctx, apps, FAFigureArchs, true)
	if err != nil {
		return nil, err
	}
	return buildFigure("Figure 5: FA vs clustered SMT, high-end machine", apps, FAFigureArchs, res), nil
}

// Figure7 reproduces Figure 7: clustered vs centralized SMTs, low-end.
func (s *Suite) Figure7() (*Figure, error) { return s.Figure7Context(context.Background()) }

// Figure7Context is Figure7 with caller cancellation.
func (s *Suite) Figure7Context(ctx context.Context) (*Figure, error) {
	apps := workloads.All()
	res, err := s.RunMatrixContext(ctx, apps, SMTFigureArchs, false)
	if err != nil {
		return nil, err
	}
	return buildFigure("Figure 7: clustered vs centralized SMT, low-end machine", apps, SMTFigureArchs, res), nil
}

// Figure8 reproduces Figure 8: clustered vs centralized SMTs, high-end.
func (s *Suite) Figure8() (*Figure, error) { return s.Figure8Context(context.Background()) }

// Figure8Context is Figure8 with caller cancellation.
func (s *Suite) Figure8Context(ctx context.Context) (*Figure, error) {
	apps := workloads.All()
	res, err := s.RunMatrixContext(ctx, apps, SMTFigureArchs, true)
	if err != nil {
		return nil, err
	}
	return buildFigure("Figure 8: clustered vs centralized SMT, high-end machine", apps, SMTFigureArchs, res), nil
}

// FigureByNumber resolves a paper figure (4, 5, 7 or 8) to its
// generator — the serving subsystem's figure endpoint dispatch.
func (s *Suite) FigureByNumber(ctx context.Context, n int) (*Figure, error) {
	switch n {
	case 4:
		return s.Figure4Context(ctx)
	case 5:
		return s.Figure5Context(ctx)
	case 7:
		return s.Figure7Context(ctx)
	case 8:
		return s.Figure8Context(ctx)
	}
	return nil, fmt.Errorf("harness: no figure %d (want 4, 5, 7 or 8)", n)
}

// Placement measures each application's Figure 6 point: thread
// parallelism as the average running threads on FA8 (the architecture
// enabling the most thread parallelism) and per-thread ILP as the
// useful IPC per running thread on FA1 (the architecture enabling the
// most ILP).
func (s *Suite) Placement(highEnd bool) (map[string]model.Point, error) {
	return s.PlacementContext(context.Background(), highEnd)
}

// PlacementContext is Placement with caller cancellation.
func (s *Suite) PlacementContext(ctx context.Context, highEnd bool) (map[string]model.Point, error) {
	apps := workloads.All()
	res, err := s.RunMatrixContext(ctx, apps, []config.Arch{config.FA8, config.FA1}, highEnd)
	if err != nil {
		return nil, err
	}
	chips := 1
	if highEnd {
		chips = config.HighEnd(config.FA8).Chips
	}
	out := make(map[string]model.Point, len(apps))
	for _, a := range apps {
		fa8 := res[a.Name]["FA8"]
		fa1 := res[a.Name]["FA1"]
		ilp := fa1.IPC
		if fa1.AvgRunningThreads > 1 {
			ilp = fa1.IPC / fa1.AvgRunningThreads
		}
		out[a.Name] = model.Point{
			// Per-chip average, so high-end points land on the same
			// 0–8 chart as Figure 6 of the paper.
			Threads: fa8.AvgRunningThreads / float64(chips),
			ILP:     ilp,
		}
	}
	return out, nil
}

// RenderPlacement formats a Figure 6 chart plus the measured points.
func RenderPlacement(points map[string]model.Point, proc model.Proc) string {
	var b strings.Builder
	b.WriteString(model.Chart(proc, points))
	names := make([]string, 0, len(points))
	for n := range points {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := points[n]
		fmt.Fprintf(&b, "%-8s threads=%.2f ilp=%.2f region(%s)=%s\n",
			n, p.Threads, p.ILP, proc.Name, proc.Classify(p))
	}
	return b.String()
}
