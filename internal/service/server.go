package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/telemetry"
	"clustersmt/internal/version"
	"clustersmt/internal/workloads"
)

// Options configures a Server. Zero values mean: test-size default,
// GOMAXPROCS workers, DefaultQueueCap queue, DefaultCacheEntries LRU,
// memory-only cache, core-default cycle bound, metrics off.
type Options struct {
	// DefaultSize is the input size used when a job or figure request
	// does not name one.
	DefaultSize workloads.Size
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// QueueCap bounds the admission FIFO (0 = DefaultQueueCap). A full
	// queue rejects submissions with 429 + Retry-After.
	QueueCap int
	// CacheEntries bounds the in-memory result LRU (0 = default).
	CacheEntries int
	// CacheDir, when non-empty, enables the persistent result store.
	CacheDir string
	// MaxCycles bounds each simulation (0 = core default).
	MaxCycles int64
	// WarmupCycles > 0 enables checkpoint-based warm-up sharing
	// (harness.Suite.WarmupCycles): workloads declaring a shared
	// prefix are forked from one warmed parent per (machine, prefix)
	// instead of simulated from cycle zero. With CacheDir set, warmed
	// checkpoints are persisted next to the result envelopes and
	// restored across daemon restarts.
	WarmupCycles int64
	// AllocPolicy selects the thread-to-cluster allocation policy for
	// every simulation this server runs ("" or "static" = the seed
	// placement; see internal/alloc). It is part of the machine's
	// canonical encoding, so results cached under one policy are never
	// served for another. AllocEpoch is the dynamic policies' rebalance
	// interval in cycles (0 = config.DefaultAllocEpoch).
	AllocPolicy string
	AllocEpoch  int64
	// MetricsInterval > 0 samples interval metrics on every simulation,
	// served by GET /v1/metrics/{run}.
	MetricsInterval int64
	// MetricsRingCap bounds retained frames per run (0 = obs default).
	MetricsRingCap int
	// Coordinator runs this daemon as the fabric front end: workers
	// register over /fabric/register, jobs and figure cells route to
	// the consistent-hash owner of their content hash, and Workers
	// defaults to QueueCap (dispatch is IO-bound — a dispatching job
	// holds an HTTP long-poll, not a CPU).
	Coordinator bool
	// HeartbeatInterval paces worker announcements (0 = default 5s);
	// HeartbeatTimeout is how stale a worker's last heartbeat may be
	// before the coordinator evicts it (0 = 3 intervals).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Version overrides the build version exchanged (and checked) at
	// registration ("" = the binary's build info).
	Version string
	// DisableTelemetry turns off the metrics registry and span ring:
	// /metrics and /v1/trace return 404 and every record call is a
	// no-op. Simulation results are bit-identical either way
	// (TestTelemetryDifferential).
	DisableTelemetry bool
	// NodeName overrides this node's identity on trace timelines
	// ("" = coordinator / advertise URL / "clusterd" by role).
	NodeName string
	// SpanRingCap bounds retained trace spans (0 = telemetry default).
	SpanRingCap int
}

// heartbeatInterval resolves the announcement period.
func (o Options) heartbeatInterval() time.Duration {
	if o.HeartbeatInterval > 0 {
		return o.HeartbeatInterval
	}
	return DefaultHeartbeatInterval
}

// heartbeatTimeout resolves the eviction bound.
func (o Options) heartbeatTimeout() time.Duration {
	if o.HeartbeatTimeout > 0 {
		return o.HeartbeatTimeout
	}
	return 3 * o.heartbeatInterval()
}

// Server is the serving subsystem: job queue + worker pool + two-tier
// result cache + figure/metrics endpoints over a pair of harness
// suites (one per input size).
type Server struct {
	opts  Options
	cache *Cache
	pool  *Pool

	suiteMu sync.Mutex
	suites  map[workloads.Size]*harness.Suite

	jobsMu sync.Mutex
	jobs   map[string]*Job
	order  []string
	seq    atomic.Uint64

	// Fabric role state: at most one of coord/worker is non-nil. coord
	// is fixed at New; worker is installed by JoinFabric after the
	// listener is bound (the advertise URL needs the port).
	fabMu  sync.Mutex
	coord  *coordinator
	worker *worker

	version string

	// tel is the telemetry state (registry + span ring); nil when
	// Options.DisableTelemetry — every record path nil-guards.
	tel *svcTelemetry

	probeServedHits   atomic.Uint64
	probeServedMisses atomic.Uint64
	snapServedHits    atomic.Uint64
	snapServedMisses  atomic.Uint64

	started time.Time
	closed  atomic.Bool
}

// New builds a Server (workers started, cache loaded) ready for
// Handler to be mounted.
func New(opts Options) (*Server, error) {
	cache, err := NewCache(opts.CacheEntries, opts.CacheDir)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if opts.Coordinator {
			// A coordinator's "workers" mostly wait on worker HTTP
			// long-polls; sizing them to the queue lets the whole
			// admitted backlog dispatch concurrently. Local-fallback
			// simulations (empty fleet) stay CPU-bounded regardless by
			// the suite's own GOMAXPROCS semaphore.
			workers = opts.QueueCap
			if workers <= 0 {
				workers = DefaultQueueCap
			}
		}
	}
	s := &Server{
		opts:    opts,
		cache:   cache,
		suites:  make(map[workloads.Size]*harness.Suite),
		jobs:    make(map[string]*Job),
		version: opts.Version,
		started: time.Now(),
	}
	if s.version == "" {
		s.version = version.String()
	}
	s.pool = NewPool(workers, opts.QueueCap, s.runJob)
	if !opts.DisableTelemetry {
		s.tel = newSvcTelemetry(s, opts.SpanRingCap)
	}
	if opts.Coordinator {
		s.coord = newCoordinator(s, opts.heartbeatTimeout())
	}
	return s, nil
}

// coordinator returns the coordinator role state (nil outside
// coordinator mode).
func (s *Server) coordinator() *coordinator {
	s.fabMu.Lock()
	defer s.fabMu.Unlock()
	return s.coord
}

// workerRef returns the worker role state (nil until JoinFabric).
func (s *Server) workerRef() *worker {
	s.fabMu.Lock()
	defer s.fabMu.Unlock()
	return s.worker
}

// JoinFabric registers this server with a coordinator and starts the
// heartbeat loop. advertiseURL is the base URL peers and the
// coordinator reach this server at — it must resolve to the listener
// serving Handler(). Call after the listener is bound; Close stops the
// heartbeats.
func (s *Server) JoinFabric(coordinatorURL, advertiseURL string) error {
	if coordinatorURL == "" || advertiseURL == "" {
		return fmt.Errorf("service: JoinFabric needs both coordinator and advertise URLs")
	}
	s.fabMu.Lock()
	defer s.fabMu.Unlock()
	if s.coord != nil {
		return fmt.Errorf("service: a coordinator cannot join another fabric")
	}
	if s.worker != nil {
		return fmt.Errorf("service: already joined %s", s.worker.coord)
	}
	w := newWorker(s, strings.TrimRight(coordinatorURL, "/"), strings.TrimRight(advertiseURL, "/"), s.opts.heartbeatInterval())
	s.worker = w
	go w.loop()
	return nil
}

// suite returns (creating on first use) the harness suite for size.
// Each suite carries its own singleflight cache, so identical
// simulations already in flight are shared even before the result
// lands in the service cache.
func (s *Server) suite(size workloads.Size) *harness.Suite {
	s.suiteMu.Lock()
	defer s.suiteMu.Unlock()
	st, ok := s.suites[size]
	if !ok {
		st = harness.NewSuite(size)
		st.MaxCycles = s.opts.MaxCycles
		st.AllocPolicy = s.opts.AllocPolicy
		st.AllocEpoch = s.opts.AllocEpoch
		st.MetricsInterval = s.opts.MetricsInterval
		st.MetricsRingCap = s.opts.MetricsRingCap
		st.WarmupCycles = s.opts.WarmupCycles
		if s.opts.WarmupCycles > 0 {
			// The federated store layers local persistence (when
			// CacheDir is set) under on-demand fetches from fabric
			// peers; with neither it is an always-miss no-op.
			st.Snapshots = fedSnapshots{s: s}
		}
		st.Remote = s.suiteRemote(size)
		if s.tel != nil {
			// Hook fires on singleflight owners only, so the histogram
			// measures true local simulation time — never dispatch or
			// probe round trips.
			// The histogram's policy label is the normalized policy name,
			// so the seed placement reads "static" whether configured
			// explicitly or by default.
			policy := config.AllocConfig{Policy: s.opts.AllocPolicy}.Normalize().Policy
			if policy == "" {
				policy = "static"
			}
			st.OnSimulate = func(ctx context.Context, app, machine string, highEnd bool, d time.Duration, err error) {
				observe(s.tel.simulate.With(policy), d)
				attrs := map[string]string{"app": app, "machine": machine, "policy": policy}
				if err != nil {
					attrs["error"] = err.Error()
				}
				s.span(telemetry.TraceIDFrom(ctx), "simulate", time.Now().Add(-d), attrs)
			}
		}
		// The pool already bounds admission; let the suite run whatever
		// the workers hand it (figure endpoints share the same suite and
		// add their own demand, still bounded by GOMAXPROCS inside).
		s.suites[size] = st
	}
	return st
}

// suiteRemote builds the fabric Remote hook for one suite. The role is
// resolved at call time (JoinFabric may run after the suite exists):
// a coordinator dispatches the run to the ring owner of its content
// hash; a worker probes its peers for an already-computed result; a
// single node declines so the harness simulates locally. The hook runs
// on the singleflight owner ahead of the semaphore, so dispatches and
// probes cost no local CPU slots.
func (s *Server) suiteRemote(size workloads.Size) harness.RemoteFunc {
	return func(ctx context.Context, app string, arch config.Arch, highEnd bool) (*core.Result, bool, error) {
		c, wk := s.coordinator(), s.workerRef()
		if c == nil && wk == nil {
			return nil, false, nil
		}
		spec := JobSpec{App: app, Arch: arch.Name, HighEnd: highEnd, Size: size.String()}
		rj, err := spec.Resolve(size)
		if err != nil {
			// Unresolvable names cannot be routed; let the local
			// harness produce the authoritative error.
			return nil, false, nil
		}
		if c != nil {
			return c.dispatch(ctx, rj.Spec, rj.Hash())
		}
		return wk.probePeers(ctx, rj.Spec, rj)
	}
}

// runJob executes one admitted job: cache check (a concurrent earlier
// submission may have completed while this one sat in the queue), then
// a context-aware suite run, then cache fill. Queue wait, cache-write
// and end-to-end latency are observed here; the trace ID rides the
// context into the suite so dispatch/probe/simulate spans attribute to
// this job.
func (s *Server) runJob(ctx context.Context, j *Job) {
	wait := time.Since(j.submittedAt())
	observe(s.hist(func(t *svcTelemetry) *telemetry.Histogram { return t.queueWait }), wait)
	s.span(j.TraceID, "queue", j.submittedAt(), map[string]string{"job": j.ID})
	ctx = telemetry.WithTraceID(ctx, j.TraceID)

	if res, tier, ok := s.cache.Get(j.Hash); ok {
		j.Complete(res, tier)
		s.observeJobDone(j)
		return
	}
	rj := j.Rj
	res, err := s.suite(rj.Size).RunContext(ctx, rj.Workload, rj.Arch, rj.Spec.HighEnd)
	if err != nil {
		j.Fail(err)
		s.observeJobDone(j)
		return
	}
	// A failed disk write degrades this entry to memory-only; the
	// result itself is still good, so the job completes regardless.
	wstart := time.Now()
	_ = s.cache.Put(j.Hash, rj.Spec, res)
	observe(s.hist(func(t *svcTelemetry) *telemetry.Histogram { return t.cacheWrite }), time.Since(wstart))
	s.span(j.TraceID, "cache-write", wstart, nil)
	j.Complete(res, "")
	s.observeJobDone(j)
}

// observeJobDone records a terminal job's end-to-end latency.
func (s *Server) observeJobDone(j *Job) {
	observe(s.hist(func(t *svcTelemetry) *telemetry.Histogram { return t.e2e }), time.Since(j.submittedAt()))
}

// Close drains the pool (bounded by ctx — expired deadlines cancel
// in-flight simulations) and persists the cache index. It is the
// graceful-shutdown path behind clusterd's signal handler.
func (s *Server) Close(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	if wk := s.workerRef(); wk != nil {
		wk.close() // stop heartbeating before draining, so eviction is prompt
	}
	if c := s.coordinator(); c != nil {
		c.close()
	}
	s.pool.Drain(ctx)
	return s.cache.Close()
}

// Handler returns the HTTP API:
//
//	POST /v1/jobs            submit a simulation {app, arch, high_end, size}
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{id}       job status/result (?wait=10s long-polls)
//	GET  /v1/figures/{n}     paper figure 4/5/7/8 (?size=, ?format=text)
//	GET  /v1/metrics         list runs with retained interval metrics
//	GET  /v1/metrics/{run}   one run's frames (?format=csv|json)
//	GET  /v1/trace/{id}      one job's fleet-wide span timeline
//	                         (?scope=local, ?format=spans)
//	GET  /metrics            OpenMetrics scrape (404 when disabled)
//	GET  /healthz            liveness + queue/cache/fabric stats
//	GET  /fabric/probe/{h}   peer cache probe: cached result for spec hash h
//	GET  /fabric/snap/{k}    peer checkpoint ship: warmed snapshot k
//	POST /fabric/register    (coordinator) worker registration
//	POST /fabric/heartbeat   (coordinator) worker heartbeat + load report
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/figures/{n}", s.handleFigure)
	mux.HandleFunc("GET /v1/metrics", s.handleListMetrics)
	mux.HandleFunc("GET /v1/metrics/{run...}", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetricsScrape)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// Fabric peer endpoints are served by every role: any node may be
	// probed for a cached result or a warmed checkpoint.
	mux.HandleFunc("GET /fabric/probe/{hash}", s.handleFabricProbe)
	mux.HandleFunc("GET /fabric/snap/{key}", s.handleFabricSnap)
	if s.coord != nil {
		mux.HandleFunc("POST /fabric/register", s.handleFabricRegister)
		mux.HandleFunc("POST /fabric/heartbeat", s.handleFabricHeartbeat)
	}
	return mux
}

// jobView is the wire form of a Job.
type jobView struct {
	ID        string       `json:"id"`
	Spec      JobSpec      `json:"spec"`
	Hash      string       `json:"hash"`
	TraceID   string       `json:"trace_id,omitempty"`
	Status    string       `json:"status"`
	CacheHit  bool         `json:"cache_hit"`
	CacheTier string       `json:"cache_tier,omitempty"`
	Error     string       `json:"error,omitempty"`
	Result    *core.Result `json:"result,omitempty"`
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobView{
		ID:        j.ID,
		Spec:      j.Rj.Spec,
		Hash:      j.Rj.HashHex(),
		TraceID:   j.TraceID,
		Status:    j.state,
		CacheHit:  j.cacheHit,
		CacheTier: j.cacheTier,
		Error:     j.errMsg,
		Result:    j.res,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxJobSpecBytes caps a POST /v1/jobs body: a JobSpec is four short
// fields, and even the longest canonical synth(...) name is under 100
// bytes. Larger bodies are refused with 413 before they are buffered.
const maxJobSpecBytes = 4 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("service: bad job spec: %w", err))
		return
	}
	rj, err := spec.Resolve(s.opts.DefaultSize)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := NewJob(fmt.Sprintf("j%d", s.seq.Add(1)), rj)
	j.ID = fmt.Sprintf("%s-%x", j.ID, j.Hash[:4])
	j.TraceID = traceIDForRequest(r)
	w.Header().Set(telemetry.TraceIDHeader, j.TraceID)

	// Content-addressed fast path: an identical submission whose result
	// is already cached is served immediately — it never occupies a
	// queue slot, so cached traffic cannot be 429'd by a full queue.
	if res, tier, ok := s.cache.Get(j.Hash); ok {
		j.Complete(res, tier)
		s.rememberJob(j)
		s.span(j.TraceID, "submit", arrived, map[string]string{"job": j.ID, "outcome": "cache-" + tier})
		s.observeJobDone(j)
		writeJSON(w, http.StatusOK, j.view())
		return
	}

	if err := s.pool.Submit(j); err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		s.span(j.TraceID, "submit", arrived, map[string]string{"job": j.ID, "outcome": "rejected"})
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	s.rememberJob(j)
	s.span(j.TraceID, "submit", arrived, map[string]string{"job": j.ID, "outcome": "queued"})
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.view())
}

// retryAfter estimates (in whole seconds, floor 1, cap 60) when a
// queue slot may free up: pending work divided by worker parallelism,
// assuming roughly a second per simulation — deliberately coarse, the
// point is to pace retries, not to promise. The division rounds up (a
// partly filled worker wave is still a full wave of waiting) and
// guards a zero worker count: NewPool clamps workers to one, but a
// 429 path must never be able to panic on arithmetic.
//
// In coordinator mode the divisor is the fleet's registered capacity
// (sum of member worker counts) when any workers are registered — the
// backlog drains at the fleet's rate, not the local pool's. An empty
// fleet falls back to the local estimate, same floor and cap.
func (s *Server) retryAfter() int {
	w := s.pool.Workers()
	if c := s.coordinator(); c != nil {
		if fw := c.fleetWorkers(); fw > 0 {
			w = fw
		}
	}
	if w < 1 {
		w = 1
	}
	n := (s.pool.Depth() + s.pool.Running() + w - 1) / w
	if n < 1 {
		n = 1
	}
	if n > 60 {
		n = 60
	}
	return n
}

func (s *Server) rememberJob(j *Job) {
	s.jobsMu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.jobsMu.Unlock()
}

func (s *Server) lookupJob(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad wait %q: %w", waitStr, err))
			return
		}
		select {
		case <-j.Done():
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.jobsMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// sizeParam resolves the ?size= query (default: server default).
func (s *Server) sizeParam(r *http.Request) (workloads.Size, error) {
	switch r.URL.Query().Get("size") {
	case "":
		return s.opts.DefaultSize, nil
	case "test":
		return workloads.SizeTest, nil
	case "ref":
		return workloads.SizeRef, nil
	}
	return 0, fmt.Errorf("service: unknown size %q (want test or ref)", r.URL.Query().Get("size"))
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad figure number %q", r.PathValue("n")))
		return
	}
	size, err := s.sizeParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Figure matrices run synchronously under the request context:
	// client disconnect cancels the in-flight simulations (the suite
	// singleflight hands unfinished runs off to any surviving caller).
	fig, err := s.suite(size).FigureByNumber(r.Context(), n)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away; nothing to write
		}
		status := http.StatusInternalServerError
		if n != 4 && n != 5 && n != 7 && n != 8 {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, fig.Render())
		return
	}
	writeJSON(w, http.StatusOK, fig)
}

func (s *Server) handleListMetrics(w http.ResponseWriter, r *http.Request) {
	size, err := s.sizeParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"metrics_enabled": s.opts.MetricsInterval > 0,
		"runs":            s.suite(size).MetricsRuns(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	size, err := s.sizeParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	run := r.PathValue("run")
	suite := s.suite(size)
	if suite.Metrics(run) == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no metrics retained for %q (is -metrics-interval set?)", run))
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = suite.WriteMetricsJSON(w, run)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_ = suite.WriteMetricsCSV(w, run)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	accepted, rejected, completed := s.pool.Counters()
	var warmForks, warmRestores int64
	s.suiteMu.Lock()
	for _, st := range s.suites {
		f, r := st.WarmForks()
		warmForks += f
		warmRestores += r
	}
	s.suiteMu.Unlock()
	fab := map[string]any{"role": "single"}
	if c := s.coordinator(); c != nil {
		fab = c.health()
	} else if wk := s.workerRef(); wk != nil {
		fab = wk.health()
	}
	fab["probe_served"] = map[string]uint64{
		"hits":   s.probeServedHits.Load(),
		"misses": s.probeServedMisses.Load(),
	}
	fab["snap_served"] = map[string]uint64{
		"hits":   s.snapServedHits.Load(),
		"misses": s.snapServedMisses.Load(),
	}
	warm := map[string]any{
		"enabled":  s.opts.WarmupCycles > 0,
		"cycles":   s.opts.WarmupCycles,
		"forks":    warmForks,
		"restores": warmRestores,
	}
	if s.opts.WarmupCycles > 0 && s.opts.CacheDir != "" {
		warm["persisted"] = snapshotStore{dir: s.opts.CacheDir}.Snapshots()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"runtime":     s.runtimeInfo(),
		"simulations": s.simulations(),
		"fabric":      fab,
		"queue": map[string]any{
			"depth":     s.pool.Depth(),
			"capacity":  s.pool.Cap(),
			"running":   s.pool.Running(),
			"workers":   s.pool.Workers(),
			"accepted":  accepted,
			"rejected":  rejected,
			"completed": completed,
		},
		"cache":  s.cache.Stats(),
		"warmup": warm,
	})
}
