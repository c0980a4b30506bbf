package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/service"
	"clustersmt/internal/workloads"
)

// The sweep grid: sweepGroups groups of sweepPerGroup synthetic
// points. Points of a group share their warm-up prefix (same
// WarmupIters and FootprintKB), so one warmed checkpoint per group
// forks into every point; the seed jitters iteration counts, so every
// run's grid is new to the fleet while the work per grid stays close.
const (
	sweepGroups       = 8
	sweepPerGroup     = 8
	sweepWarmupCycles = 8000
	sweepHeartbeat    = 100 * time.Millisecond
	// A saturated two-core host can delay heartbeats well past three
	// intervals; a long eviction timeout keeps the fleet intact through
	// the sweep and its shutdown.
	sweepEvictAfter = 30 * time.Second
)

// sweepShapes are the (ChainLen, IndepOps, MemOps) knobs of a group's
// points: the ILP axis of the paper's design space.
var sweepShapes = [sweepPerGroup][3]int{
	{0, 1, 1}, {0, 3, 2}, {1, 2, 1}, {2, 0, 2}, {2, 2, 1}, {3, 1, 2}, {4, 0, 1}, {4, 4, 2},
}

func sweepGrid(e *env) []service.JobSpec {
	var out []service.JobSpec
	for g := 0; g < sweepGroups; g++ {
		warm := int64(4000 + 200*g + 8*e.rng.Intn(16))
		for _, sh := range sweepShapes {
			w := workloads.Synthetic(workloads.SyntheticSpec{
				ParCap: 2 * (g % 4), ChainLen: sh[0], IndepOps: sh[1], MemOps: sh[2],
				FootprintKB: 16 << (g % 4), Iters: int64(1536 + 16*e.rng.Intn(8)), WarmupIters: warm,
			})
			out = append(out, service.JobSpec{App: w.Name, Arch: "SMT2", Size: "ref"})
		}
	}
	e.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fleet is an in-process coordinator plus single-slot workers, each
// worker with its own cache directory and warm-up sharing on.
type fleet struct {
	coord   *node
	workers []*node
	dir     string
}

// startFleet starts the coordinator and the workers and joins each
// worker to the coordinator: the fleet's start-up work.
func startFleet(dir string) (*fleet, error) {
	f := &fleet{dir: dir}
	var err error
	f.coord, err = startNode(service.Options{Coordinator: true, DefaultSize: workloads.SizeTest,
		HeartbeatInterval: sweepHeartbeat, HeartbeatTimeout: sweepEvictAfter})
	if err != nil {
		return nil, err
	}
	for i := 0; i < simSlots(); i++ {
		w, err := startNode(service.Options{Workers: 1, DefaultSize: workloads.SizeTest,
			CacheDir: filepath.Join(dir, fmt.Sprintf("w%d", i)), WarmupCycles: sweepWarmupCycles,
			HeartbeatInterval: sweepHeartbeat})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		if err := w.srv.JoinFabric(f.coord.url, w.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// awaitFormed waits until the coordinator lists every worker and every
// worker knows all its peers. Workers learn of peers that joined after
// them on their next heartbeat, so this is mostly a wait for the
// heartbeat ticker, not start-up work.
func (f *fleet) awaitFormed(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready := true
		for _, n := range append([]*node{f.coord}, f.workers...) {
			var h struct {
				Fabric struct {
					Peers []json.RawMessage `json:"peers"`
				} `json:"fabric"`
			}
			if err := getJSON(c, n.url+"/healthz", &h); err != nil {
				return err
			}
			want := len(f.workers) - 1
			if n == f.coord {
				want = len(f.workers)
			}
			ready = ready && len(h.Fabric.Peers) == want
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not form within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (f *fleet) stop() error {
	var first error
	for _, n := range append(f.workers, f.coord) {
		if n == nil {
			continue
		}
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(f.dir); err != nil && first == nil {
		first = err
	}
	return first
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sweepPass submits the whole grid to the coordinator, which queues
// and dispatches it, then waits for every point: the load generator's
// schedule with every request due at once.
func sweepPass(e *env, f *fleet, c *http.Client, grid []service.JobSpec, book *resultBook, rep *report) ([]outcome, time.Duration) {
	t0 := time.Now()
	out := openLoop(t0, make([]time.Duration, len(grid)), func(i int) (bool, pollFunc) {
		spec := grid[i]
		sp := e.tr.begin("client.request", 0, map[string]string{"app": spec.App})
		finish := func(j jobReply, err error) bool {
			sp.end()
			if err == nil {
				err = book.record(spec, j)
			}
			if err != nil {
				rep.fail("%v", err)
				return false
			}
			return true
		}
		status, j, err := postJob(c, f.coord.url, spec)
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("%s: status %d (%s)", spec.App, status, j.Error)
		}
		if err != nil {
			return finish(j, err), nil
		}
		return false, jobPoll(c, f.coord.url, j.ID, finish)
	})
	rep.attempted += len(out)
	return out, time.Since(t0)
}

func runSweep(e *env) (*report, error) {
	rep := newReport()
	c := newClient()
	defer c.CloseIdleConnections()
	grid := sweepGrid(e)
	rep.notes = append(rep.notes, fmt.Sprintf("%d points in %d warm-up groups, coordinator + %d single-slot workers, warm-up checkpoint at cycle %d",
		len(grid), sweepGroups, simSlots(), sweepWarmupCycles))
	tr := e.tr
	e.tr = nil

	var setups, walls, rates, heaps []float64
	var first *resultBook
	passes := 0
	// pass runs one cache-cold sweep on a fresh fleet. The first pass's
	// results are checked against a Suite, later passes' against the
	// first's bytes. keep leaves the fleet running for the caller to
	// scrape and stop.
	var outs []outcome
	pass := func(keep bool) (*fleet, *resultBook, time.Duration, error) {
		passes++
		t0 := time.Now()
		f, err := startFleet(filepath.Join(e.outDir, fmt.Sprintf("sweep-%d-%d", os.Getpid(), passes)))
		if err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := f.awaitFormed(c); err != nil {
			f.stop()
			return nil, nil, 0, err
		}
		book := newResultBook()
		var wall time.Duration
		outs, wall = sweepPass(e, f, c, grid, book, rep)
		var committed uint64
		for _, s := range grid {
			committed += book.committed(s)
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(committed)/1e6/wall.Seconds())
		heaps = append(heaps, retainedHeapMB())
		if first == nil {
			first = book
			_, err = book.verify(rep, c, f.coord.url, harness.NewSuite(workloads.SizeRef))
		} else {
			book.sameAs(rep, first)
		}
		if err == nil && !keep {
			err = f.stop()
			f = nil
		}
		if err != nil {
			if f != nil {
				f.stop()
			}
			return nil, nil, 0, err
		}
		return f, book, wall, nil
	}
	if tr == nil {
		n, err := timedPasses(e.seconds, func() (time.Duration, error) {
			_, _, d, err := pass(false)
			return d, err
		})
		if err != nil {
			return nil, err
		}
		rep.metrics["setup_s"] = median(setups)
		rep.metrics["wall_s"] = median(walls)
		rep.metrics["sim_minst_per_s"] = median(rates)
		rep.metrics["retained_heap_mb"] = median(heaps)
		rep.notes = append(rep.notes, fmt.Sprintf("%d timed passes: wall %.3f s", n, walls))
		return rep, nil
	}

	// Traced run: one untraced pass for the overhead baseline, one
	// traced pass whose fleet is then scraped.
	if _, _, _, err := pass(false); err != nil {
		return nil, err
	}
	e.tr = tr
	r0 := readRuntime()
	f, book, wall, err := pass(true)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	addRuntimeDelta(rep.metrics, r0, readRuntime())
	rep.metrics["trace_overhead_share"] = wall.Seconds()/walls[0] - 1
	addLoadgenMetrics(rep.metrics, outs)
	if err := addFleetMetrics(rep.metrics, c, f); err != nil {
		return nil, err
	}
	if err := addSnapshotMetrics(rep.metrics, grid); err != nil {
		return nil, err
	}
	verifySuite := harness.NewSuite(workloads.SizeRef)
	cells, err := book.verify(rep, c, f.coord.url, verifySuite)
	if err != nil {
		return nil, err
	}
	if rep.metrics["harness.cached_run_us"], err = cachedRunUS(verifySuite, cells[0]); err != nil {
		return nil, err
	}
	var t coreTotals
	for _, cl := range cells {
		if _, err := directRun(e.tr, 0, cl, &t); err != nil {
			return nil, err
		}
	}
	addCoreMetrics(rep.metrics, &t)
	return rep, nil
}

// addFleetMetrics scrapes the coordinator (dispatch) and the workers
// (service, fabric peers, warm-up sharing).
func addFleetMetrics(m map[string]float64, c *http.Client, f *fleet) error {
	coord, err := fetchScrape(c, f.coord.url)
	if err != nil {
		return err
	}
	m["fabric.dispatch_p50_ms"] = coord.quantileMS("clusterd_dispatch_seconds", 0.5)
	m["fabric.dispatch_p99_ms"] = coord.quantileMS("clusterd_dispatch_seconds", 0.99)
	m["fabric.requeued"] = coord.sum("clusterd_fabric_events_total", `event="requeued"`)
	m["fabric.local_fallbacks"] = coord.sum("clusterd_fabric_events_total", `event="local_fallback"`)
	workers := scrape{}
	for _, w := range f.workers {
		sc, err := fetchScrape(c, w.url)
		if err != nil {
			return err
		}
		for k, v := range sc {
			workers[k] += v
		}
		var h struct {
			Warmup struct {
				Forks    int64 `json:"forks"`
				Restores int64 `json:"restores"`
			} `json:"warmup"`
		}
		if err := getJSON(c, w.url+"/healthz", &h); err != nil {
			return err
		}
		m["harness.warm_forks"] += float64(h.Warmup.Forks)
		m["harness.warm_restores"] += float64(h.Warmup.Restores)
	}
	m["fabric.snapshot_fetch_p50_ms"] = workers.quantileMS("clusterd_snapshot_fetch_seconds", 0.5)
	m["fabric.peer_probe_p50_ms"] = workers.quantileMS("clusterd_peer_probe_seconds", 0.5)
	if probes := workers.sum("clusterd_peer_probes_total"); probes > 0 {
		m["fabric.probe_hit_share"] = workers.sum("clusterd_peer_probes_total", `outcome="hit"`) / probes
	}
	addServiceMetrics(m, workers)
	return nil
}

// addSnapshotMetrics measures the checkpoint layer on the sweep's
// warmed parent: a group's program run to the warm-up cycle, encoded,
// restored, and forked into a sibling point's program. Each step is
// timed several times and the median reported.
func addSnapshotMetrics(m map[string]float64, grid []service.JobSpec) error {
	first, err := grid[0].Resolve(workloads.SizeRef)
	if err != nil {
		return err
	}
	var sibling *service.ResolvedJob
	for _, s := range grid[1:] {
		rj, err := s.Resolve(workloads.SizeRef)
		if err != nil {
			return err
		}
		p1, _ := first.Workload.Build(first.Machine.Threads(), first.Machine.Chips, first.Size).PrefixKey()
		p2, _ := rj.Workload.Build(rj.Machine.Threads(), rj.Machine.Chips, rj.Size).PrefixKey()
		if p1 == p2 {
			sibling = rj
			break
		}
	}
	if sibling == nil {
		return fmt.Errorf("sweep grid has no two points sharing a warm-up prefix")
	}
	mach := config.LowEnd(first.Arch)
	p := first.Workload.Build(mach.Threads(), mach.Chips, first.Size)
	parent, err := core.New(mach, p)
	if err != nil {
		return err
	}
	if err := parent.RunTo(sweepWarmupCycles); err != nil {
		return err
	}
	p2 := sibling.Workload.Build(mach.Threads(), mach.Chips, sibling.Size)
	const reps = 5
	var enc, res, fork []float64
	var data []byte
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if data, err = parent.Snapshot(); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := core.Restore(mach, p, data); err != nil {
			return err
		}
		res = append(res, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := parent.ForkProgram(p2); err != nil {
			return err
		}
		fork = append(fork, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["snapshot.bytes"] = float64(len(data))
	m["snapshot.encode_ms"] = median(enc)
	m["snapshot.restore_ms"] = median(res)
	m["snapshot.fork_us"] = median(fork)
	return nil
}
