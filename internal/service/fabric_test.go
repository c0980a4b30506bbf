package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/workloads"
)

// fnode is one fabric process stand-in: a Server behind its own
// listener. kill() is the SIGKILL analogue — heartbeats stop and every
// open connection dies without drain, exactly what peers observe when
// a real worker process is killed.
type fnode struct {
	srv  *Server
	ts   *httptest.Server
	dead sync.Once
}

func (n *fnode) URL() string { return n.ts.URL }

func (n *fnode) kill() {
	if wk := n.srv.workerRef(); wk != nil {
		wk.close()
	}
	n.dead.Do(func() {
		n.ts.CloseClientConnections()
		n.ts.Close()
	})
}

// fabricTimings are aggressive so membership churn resolves in
// milliseconds; production defaults are seconds.
func fabricTimings(opts Options) Options {
	opts.DefaultSize = workloads.SizeTest
	opts.HeartbeatInterval = 50 * time.Millisecond
	opts.HeartbeatTimeout = 300 * time.Millisecond
	return opts
}

func newFabricNode(t *testing.T, opts Options) *fnode {
	t.Helper()
	srv, err := New(fabricTimings(opts))
	if err != nil {
		t.Fatal(err)
	}
	n := &fnode{srv: srv, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(func() {
		n.dead.Do(func() { n.ts.Close() })
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return n
}

func newFabricWorker(t *testing.T, coord *fnode, opts Options) *fnode {
	t.Helper()
	n := newFabricNode(t, opts)
	if err := n.srv.JoinFabric(coord.URL(), n.URL()); err != nil {
		t.Fatal(err)
	}
	return n
}

// Test-only introspection with proper locking (the race detector runs
// these tests; unsynchronized peeks would trip it).
func (c *coordinator) memberCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.members)
}

func (w *worker) knowsPeer(url string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, p := range w.peers {
		if p == url {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func simCount(n *fnode) int64 {
	return n.srv.suite(workloads.SizeTest).Simulations()
}

// healthView decodes the /healthz sections the fabric tests assert on.
type healthView struct {
	Simulations int64 `json:"simulations"`
	Queue       struct {
		Depth   int `json:"depth"`
		Running int `json:"running"`
	} `json:"queue"`
	Fabric struct {
		Role        string               `json:"role"`
		Registered  bool                 `json:"registered"`
		Peers       []json.RawMessage    `json:"peers"`
		Probes      map[string]peerStats `json:"probes"`
		Counters    map[string]uint64    `json:"counters"`
		ProbeServed struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"probe_served"`
		SnapServed struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"snap_served"`
	} `json:"fabric"`
}

func getHealth(t *testing.T, n *fnode) healthView {
	t.Helper()
	resp, err := http.Get(n.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthView
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// sweepSpecs is a 16-point synthetic sweep — the (threads × ILP) grid
// shrunk to fast cells, every point a distinct content hash.
func sweepSpecs() []JobSpec {
	var specs []JobSpec
	for chain := 0; chain < 4; chain++ {
		for indep := 1; indep <= 4; indep++ {
			name := workloads.Synthetic(workloads.SyntheticSpec{
				ChainLen: chain, IndepOps: indep, Iters: 256,
			}).Name
			specs = append(specs, JobSpec{App: name, Arch: "SMT2", Size: "test"})
		}
	}
	return specs
}

// runSweep submits every spec and waits all jobs out, returning result
// bytes keyed by app name.
func runSweep(t *testing.T, ts *httptest.Server, specs []JobSpec) map[string]json.RawMessage {
	t.Helper()
	ids := make(map[string]string)
	for _, spec := range specs {
		status, j, _ := submit(t, ts, spec)
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("submit %s: status %d", spec.App, status)
		}
		ids[spec.App] = j.ID
	}
	out := make(map[string]json.RawMessage)
	for app, id := range ids {
		j := waitJob(t, ts, id)
		if j.Status != StateDone {
			t.Fatalf("job %s (%s) ended %q: %s", id, app, j.Status, j.Error)
		}
		out[app] = j.Result
	}
	return out
}

// TestFabricSweepSurvivesWorkerLoss is the tentpole e2e: a 16-point
// sweep through a coordinator saturates three workers, one worker is
// killed (SIGKILL-style: no drain, no goodbye) mid-sweep, and the
// surviving fleet still produces results bit-identical to a single
// local daemon — the coordinator itself never simulates.
func TestFabricSweepSurvivesWorkerLoss(t *testing.T) {
	specs := sweepSpecs()

	// Single-node reference.
	_, tsRef := newTestServer(t, Options{})
	ref := runSweep(t, tsRef, specs)

	coord := newFabricNode(t, Options{Coordinator: true})
	workers := []*fnode{
		newFabricWorker(t, coord, Options{Workers: 1}),
		newFabricWorker(t, coord, Options{Workers: 1}),
		newFabricWorker(t, coord, Options{Workers: 1}),
	}
	waitFor(t, "3 workers registered", func() bool {
		return coord.srv.coordinator().memberCount() == 3
	})

	// Launch the sweep, then kill whichever worker first completes two
	// simulations — guaranteed to exist (16 jobs over 3 single-worker
	// nodes) and guaranteed to be mid-sweep.
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		status, j, _ := submit(t, coord.ts, spec)
		if status != http.StatusAccepted {
			t.Fatalf("fabric submit %s: status %d", spec.App, status)
		}
		ids = append(ids, j.ID)
	}
	var victim *fnode
	waitFor(t, "a worker to complete 2 simulations", func() bool {
		for _, w := range workers {
			if simCount(w) >= 2 {
				victim = w
				return true
			}
		}
		return false
	})
	victim.kill()

	byID := make(map[string]json.RawMessage)
	for i, id := range ids {
		j := waitJob(t, coord.ts, id)
		if j.Status != StateDone {
			t.Fatalf("job %s (%s) ended %q: %s", id, specs[i].App, j.Status, j.Error)
		}
		byID[specs[i].App] = j.Result
	}
	for app, want := range ref {
		if !bytes.Equal(want, byID[app]) {
			t.Fatalf("%s: fabric result differs from single-node reference:\n%s\nvs\n%s", app, want, byID[app])
		}
	}

	// The coordinator routed everything: zero local simulations. The
	// sweep spread across the fleet: the victim simulated before dying,
	// and at least one other worker simulated too (with 16 keys on a
	// 3-node ring, all-on-one-node does not happen).
	if n := simCount(coord); n != 0 {
		t.Fatalf("coordinator ran %d local simulations, want 0 (all dispatched)", n)
	}
	var fleet int64
	busy := 0
	for _, w := range workers {
		n := simCount(w)
		fleet += n
		if n > 0 {
			busy++
		}
	}
	if fleet < int64(len(specs)) {
		t.Fatalf("fleet simulated %d times for %d jobs (lost work must be recomputed, never skipped)", fleet, len(specs))
	}
	if busy < 2 {
		t.Fatalf("only %d workers simulated; the sweep did not spread", busy)
	}

	// The dead worker is evicted (by failed dispatch or missed
	// heartbeats) and the coordinator's health reflects the loss.
	waitFor(t, "victim eviction", func() bool {
		return coord.srv.coordinator().memberCount() == 2
	})
	h := getHealth(t, coord)
	if h.Fabric.Role != "coordinator" || len(h.Fabric.Peers) != 2 {
		t.Fatalf("coordinator healthz: role %q with %d peers, want coordinator/2", h.Fabric.Role, len(h.Fabric.Peers))
	}
	if h.Fabric.Counters["dispatched"] == 0 {
		t.Fatal("coordinator healthz: no dispatches counted")
	}
	if h.Simulations != 0 {
		t.Fatalf("coordinator healthz reports %d local simulations, want 0", h.Simulations)
	}
}

// TestFabricFederatedCacheAfterRestart pins the federated-cache
// acceptance: after a worker is killed and replaced (same disk, new
// identity) the whole sweep is re-served from the fleet's caches —
// local hits where the ring still agrees, peer probes where keys
// remapped — with zero new simulations anywhere.
func TestFabricFederatedCacheAfterRestart(t *testing.T) {
	specs := sweepSpecs()[:8]
	dir1, dir2 := t.TempDir(), t.TempDir()

	// CacheEntries: 1 keeps the coordinator's own LRU from absorbing
	// the sweep — resubmissions must be answered by the fleet.
	coord := newFabricNode(t, Options{Coordinator: true, CacheEntries: 1})
	w1 := newFabricWorker(t, coord, Options{Workers: 1, CacheDir: dir1})
	w2 := newFabricWorker(t, coord, Options{Workers: 1, CacheDir: dir2})
	waitFor(t, "2 workers registered", func() bool {
		return coord.srv.coordinator().memberCount() == 2
	})

	first := runSweep(t, coord.ts, specs)
	if got := simCount(w1) + simCount(w2); got != int64(len(specs)) {
		t.Fatalf("cold sweep ran %d simulations for %d distinct jobs", got, len(specs))
	}
	w1Sims := simCount(w1)

	// Kill w2; its memory dies, its disk (dir2) survives — exactly a
	// worker process restart. The replacement has a new URL, so the
	// ring remaps and some keys now live "in the wrong place".
	w2.kill()
	waitFor(t, "w2 eviction", func() bool {
		return coord.srv.coordinator().memberCount() == 1
	})
	w2b := newFabricWorker(t, coord, Options{Workers: 1, CacheDir: dir2})
	waitFor(t, "w2b registered and peered", func() bool {
		return coord.srv.coordinator().memberCount() == 2 &&
			w1.srv.workerRef().knowsPeer(w2b.URL()) &&
			w2b.srv.workerRef().knowsPeer(w1.URL())
	})

	second := runSweep(t, coord.ts, specs)
	for app, want := range first {
		if !bytes.Equal(want, second[app]) {
			t.Fatalf("%s: resubmitted result differs from original", app)
		}
	}
	if got := simCount(w1); got != w1Sims {
		t.Fatalf("w1 simulated %d more times on a fully cached sweep", got-w1Sims)
	}
	if got := simCount(w2b); got != 0 {
		t.Fatalf("replacement worker simulated %d times; every result was already on the fleet's disks", got)
	}
	if got := simCount(coord); got != 0 {
		t.Fatalf("coordinator simulated %d times", got)
	}
}

// TestFabricPeerProbeAndSnapshotShipping drives the two peer channels
// deterministically: a cache probe serves a result computed on another
// node without re-simulating, and a warm checkpoint ships to a peer
// that then forks from it (restores=1) instead of re-running the
// warm-up. Health counters on both ends confirm which channel served.
func TestFabricPeerProbeAndSnapshotShipping(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	coord := newFabricNode(t, Options{Coordinator: true})
	w1 := newFabricWorker(t, coord, Options{Workers: 1, CacheDir: dir1, WarmupCycles: 1000})
	w2 := newFabricWorker(t, coord, Options{Workers: 1, CacheDir: dir2, WarmupCycles: 1000})
	waitFor(t, "workers peered", func() bool {
		return w1.srv.workerRef().knowsPeer(w2.URL()) && w2.srv.workerRef().knowsPeer(w1.URL())
	})

	variantA := workloads.Synthetic(workloads.SyntheticSpec{
		ChainLen: 0, IndepOps: 4, Iters: 256, WarmupIters: 1500,
	}).Name
	variantB := workloads.Synthetic(workloads.SyntheticSpec{
		ChainLen: 4, IndepOps: 0, Iters: 256, WarmupIters: 1500,
	}).Name

	// Reference results from a warm-up-free single node.
	_, tsRef := newTestServer(t, Options{})

	run := func(ts *httptest.Server, app string) wireJob {
		status, j, _ := submit(t, ts, JobSpec{App: app, Arch: "SMT2", Size: "test"})
		if status == http.StatusOK {
			return j
		}
		if status != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", app, status)
		}
		done := waitJob(t, ts, j.ID)
		if done.Status != StateDone {
			t.Fatalf("job %s failed: %s", app, done.Error)
		}
		return done
	}

	refA := run(tsRef, variantA)

	// w1 computes variant A from scratch (warming its checkpoint).
	gotA := run(w1.ts, variantA)
	if !bytes.Equal(refA.Result, gotA.Result) {
		t.Fatal("w1's warmed result differs from the reference")
	}
	if n := simCount(w1); n != 1 {
		t.Fatalf("w1 ran %d simulations, want 1", n)
	}

	// Peer cache probe: the same spec on w2 is served by w1's cache —
	// zero simulations on w2, bit-identical bytes.
	probed := run(w2.ts, variantA)
	if !bytes.Equal(refA.Result, probed.Result) {
		t.Fatal("probe-served result differs from the reference")
	}
	if n := simCount(w2); n != 0 {
		t.Fatalf("w2 ran %d simulations despite the peer holding the result", n)
	}
	h2 := getHealth(t, w2)
	if h2.Fabric.Role != "worker" || !h2.Fabric.Registered {
		t.Fatalf("w2 healthz fabric: %+v", h2.Fabric)
	}
	if st := h2.Fabric.Probes[w1.URL()]; st.Hits != 1 {
		t.Fatalf("w2's probe stats for w1: %+v, want 1 hit", st)
	}
	if h1 := getHealth(t, w1); h1.Fabric.ProbeServed.Hits != 1 {
		t.Fatalf("w1 served %d probe hits, want 1", h1.Fabric.ProbeServed.Hits)
	}

	// Snapshot shipping: variant B shares A's warm-up prefix but is a
	// different job, so no cache probe can serve it. w2 must simulate —
	// but it forks from w1's shipped checkpoint instead of re-running
	// the warm-up.
	refB := run(tsRef, variantB)
	gotB := run(w2.ts, variantB)
	if !bytes.Equal(refB.Result, gotB.Result) {
		t.Fatal("forked-from-shipped-checkpoint result differs from the reference")
	}
	if forks, restores := w2.srv.suite(workloads.SizeTest).WarmForks(); forks != 1 || restores != 1 {
		t.Fatalf("w2 warm-up: %d forks / %d restores, want 1 / 1 (checkpoint shipped, not re-warmed)", forks, restores)
	}
	if h1 := getHealth(t, w1); h1.Fabric.SnapServed.Hits != 1 {
		t.Fatalf("w1 shipped %d snapshots, want 1", h1.Fabric.SnapServed.Hits)
	}
	// The shipped checkpoint is re-persisted locally: w2 won't fetch
	// it twice.
	entries, err := os.ReadDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), "snap-") && strings.HasSuffix(de.Name(), ".bin") {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("w2 persisted %d shipped snapshots, want 1", snaps)
	}
}

// TestFabricRetryAfterFleetCapacity pins the coordinator-mode
// Retry-After estimate: the divisor is the fleet's registered worker
// capacity, not the local pool. It also exercises the unreachable-
// worker path end to end — once the fake members are evicted, every
// admitted job falls back to local simulation and completes.
func TestFabricRetryAfterFleetCapacity(t *testing.T) {
	srv, err := New(Options{
		DefaultSize: workloads.SizeTest,
		Coordinator: true,
		Workers:     1,
		QueueCap:    4,
		// Keep the janitor out of the way: evictions in this test must
		// come from failed dispatches only.
		HeartbeatTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	gate := make(chan struct{})
	srv.pool.gate = gate
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(openGate)

	// Two fake members, one worker each: fleet capacity 2. Nothing
	// listens at their URLs — dispatch will evict them.
	for i, port := range []int{9, 10} {
		body, _ := json.Marshal(registerRequest{URL: fmt.Sprintf("http://127.0.0.1:%d", port), Workers: 1})
		resp, err := http.Post(ts.URL+"/fabric/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fake member %d: register status %d", i, resp.StatusCode)
		}
	}

	specs := sweepSpecs()[:6]
	status, j0, _ := submit(t, ts, specs[0])
	if status != http.StatusAccepted {
		t.Fatalf("job 0: status %d", status)
	}
	waitFor(t, "gated worker pickup", func() bool { return srv.pool.Depth() == 0 })

	ids := []string{j0.ID}
	for _, spec := range specs[1:5] {
		status, j, _ := submit(t, ts, spec)
		if status != http.StatusAccepted {
			t.Fatalf("fill submission: status %d", status)
		}
		ids = append(ids, j.ID)
	}

	// Queue full: 4 queued (the gated job counts as neither queued nor
	// running) over fleet capacity 2 → ceil = 2. The local pool alone
	// (1 worker) would have said 4.
	status, _, hdr := submit(t, ts, specs[5])
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d, want 429", status)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want \"2\" (ceil(4 queued / fleet capacity 2))", ra)
	}

	openGate()
	for _, id := range ids {
		if j := waitJob(t, ts, id); j.Status != StateDone {
			t.Fatalf("job %s ended %q: %s", id, j.Status, j.Error)
		}
	}

	// Both fakes were evicted on first contact; everything ran locally.
	h := getHealth(t, srv0(ts, srv))
	if h.Fabric.Counters["evicted"] != 2 {
		t.Fatalf("evicted %d members, want 2", h.Fabric.Counters["evicted"])
	}
	if h.Fabric.Counters["local_fallbacks"] == 0 {
		t.Fatal("no local fallbacks counted despite an empty fleet")
	}
	if h.Simulations != int64(len(ids)) {
		t.Fatalf("coordinator ran %d simulations locally, want %d (degraded, never wrong)", h.Simulations, len(ids))
	}
}

// srv0 adapts a bare (srv, ts) pair to the fnode helpers.
func srv0(ts *httptest.Server, srv *Server) *fnode {
	return &fnode{srv: srv, ts: ts}
}
