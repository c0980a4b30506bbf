package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/harness"
	"clustersmt/internal/service"
	"clustersmt/internal/workloads"
)

// The serve workload's traffic: three fixed offered rates, each for its
// share of the run; serveColdShare of its requests are unique cold
// specs and the rest repeat the pre-warmed hot set. A rate is met when
// p99 latency over all of its requests (a failed request counts as
// missing) is within serveLimit and the backlog does not grow.
//
// The rates bracket the capacity of a default node driven by this load
// generator in one process: on a 2-vCPU Xeon VM that capacity sits
// near 900 req/s (about 90 cold jobs/s), met in some runs and missed in
// others, and beyond it the generator's own lag and the cold queue both
// grow. 300 req/s is well below it, 900 near it and 1200 above it. The
// lowest rate comes first, on a fresh job table, and gives the gated
// figures; it takes half the run, for more samples, while the other two
// only have to show whether they are met.
var servePlan = []struct{ rate, share float64 }{{300, 0.5}, {900, 0.25}, {1200, 0.25}}

const (
	serveColdShare = 0.1
	serveLimit     = 100 * time.Millisecond
)

// hotSpecs is the fixed hot set: paper applications at test size.
func hotSpecs() []service.JobSpec {
	var out []service.JobSpec
	for _, w := range workloads.All() {
		for _, a := range []string{"SMT2", "FA4"} {
			out = append(out, service.JobSpec{App: w.Name, Arch: a, Size: "test"})
		}
	}
	for _, app := range []string{"swim", "mgrid", "fmm", "ocean"} {
		out = append(out, service.JobSpec{App: app, Arch: "SMT2", HighEnd: true, Size: "test"})
	}
	return out
}

// coldSource hands out cold specs no earlier request used: every fifth
// is a paper-application cell outside the hot set (while they last),
// the rest are seed-generated synthetic workloads.
type coldSource struct {
	rng   *rand.Rand
	paper []service.JobSpec
	used  map[string]bool
	n     int
}

func newColdSource(rng *rand.Rand, hot []service.JobSpec) *coldSource {
	c := &coldSource{rng: rng, used: map[string]bool{}}
	for _, s := range hot {
		c.used[specKey(s)] = true
	}
	for _, w := range workloads.All() {
		for _, a := range config.AllArchs {
			for _, he := range []bool{false, true} {
				s := service.JobSpec{App: w.Name, Arch: a.Name, HighEnd: he, Size: "test"}
				if !c.used[specKey(s)] {
					c.paper = append(c.paper, s)
				}
			}
		}
	}
	rng.Shuffle(len(c.paper), func(i, j int) { c.paper[i], c.paper[j] = c.paper[j], c.paper[i] })
	return c
}

func (c *coldSource) next() service.JobSpec {
	c.n++
	if c.n%5 == 0 && len(c.paper) > 0 {
		s := c.paper[0]
		c.paper = c.paper[1:]
		c.used[specKey(s)] = true
		return s
	}
	for {
		r := c.rng
		w := workloads.Synthetic(workloads.SyntheticSpec{
			ParCap: []int{0, 2, 4, 6}[r.Intn(4)], ChainLen: r.Intn(5), IndepOps: r.Intn(5),
			MemOps: 1 + r.Intn(3), FootprintKB: []int{16, 32, 64}[r.Intn(3)],
			Iters: int64(256 + 32*r.Intn(9)), SerialIters: int64(8 * r.Intn(5)), Steps: int64(1 + r.Intn(2)),
		})
		s := service.JobSpec{App: w.Name, Arch: config.AllArchs[r.Intn(len(config.AllArchs))].Name, Size: "test"}
		if !c.used[specKey(s)] {
			c.used[specKey(s)] = true
			return s
		}
	}
}

// serveReq is one scheduled request.
type serveReq struct {
	spec service.JobSpec
	cold bool
}

// phaseStats summarizes one offered rate.
type phaseStats struct {
	out              []outcome
	rate             float64
	sent, ok         int
	p50, p99, lagP99 float64 // ms
	cached, cold     []float64
	backlog          [2]float64 // mean requests outstanding in each half
	achieved         float64    // successful requests per second
	met              bool
	committed        uint64  // instructions in the successful answers
	cpu              float64 // process CPU seconds over the phase
}

// serveSetup starts a node at its defaults and warms the hot set.
func serveSetup(c *http.Client) (*node, error) {
	n, err := startNode(service.Options{})
	if err != nil {
		return nil, err
	}
	hot := hotSpecs()
	ids := make([]string, 0, len(hot))
	for _, s := range hot {
		status, j, err := postJob(c, n.url, s)
		if err == nil && status != http.StatusAccepted && status != http.StatusOK {
			err = fmt.Errorf("warm %s: status %d", s.App, status)
		}
		if err != nil {
			n.stop()
			return nil, err
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		if j, err := awaitJob(c, n.url, id); err != nil || j.Status != service.StateDone {
			n.stop()
			return nil, fmt.Errorf("warm job %s: %v %s", id, err, j.Error)
		}
	}
	return n, nil
}

// servePhases drives the three rates against n, each for its share of
// total, and returns per-phase statistics.
func servePhases(e *env, n *node, c *http.Client, book *resultBook, rep *report, cold *coldSource, total time.Duration) []phaseStats {
	hot := hotSpecs()
	var phases []phaseStats
	for _, ph := range servePlan {
		rate, phaseDur := ph.rate, time.Duration(ph.share*float64(total))
		due := poissonSchedule(e.rng, rate, phaseDur)
		// Exactly serveColdShare of the phase's requests are cold, at
		// seeded positions: a draw per request would move the cold count,
		// and with it the summed latency, by about 6% between seeds.
		isCold := make([]bool, len(due))
		for _, i := range e.rng.Perm(len(due))[:int(serveColdShare*float64(len(due)))] {
			isCold[i] = true
		}
		reqs := make([]serveReq, len(due))
		for i := range reqs {
			if isCold[i] {
				reqs[i] = serveReq{spec: cold.next(), cold: true}
			} else {
				reqs[i] = serveReq{spec: hot[e.rng.Intn(len(hot))]}
			}
		}
		send := func(i int) (bool, pollFunc) {
			r := reqs[i]
			class := "cached"
			if r.cold {
				class = "cold"
			}
			sp := e.tr.begin("client.request", 0, map[string]string{"class": class, "app": r.spec.App})
			finish := func(j jobReply, err error) bool {
				sp.end()
				if err == nil {
					err = book.record(r.spec, j)
				}
				if err != nil {
					rep.fail("%v", err)
					return false
				}
				return true
			}
			status, j, err := postJob(c, n.url, r.spec)
			if err != nil {
				return finish(j, err), nil
			}
			switch status {
			case http.StatusOK:
				return finish(j, nil), nil
			case http.StatusAccepted:
				return false, jobPoll(c, n.url, j.ID, finish)
			}
			return finish(j, fmt.Errorf("%s: status %d (%s)", r.spec.App, status, j.Error)), nil
		}
		cpu0 := cpuSeconds()
		out := openLoop(time.Now(), due, send)
		cpu := cpuSeconds() - cpu0
		rep.attempted += len(out)
		p := summarizePhase(rate, phaseDur, due, reqs, out, book)
		p.cpu = cpu
		phases = append(phases, p)
	}
	return phases
}

func summarizePhase(rate float64, dur time.Duration, due []time.Duration, reqs []serveReq, out []outcome, book *resultBook) phaseStats {
	p := phaseStats{out: out, rate: rate, sent: len(out)}
	all := make([]float64, len(out))
	lags := make([]float64, len(out))
	for i, o := range out {
		l := float64(o.latency.Nanoseconds()) / 1e6
		lags[i] = float64(o.lag.Nanoseconds()) / 1e6
		if !o.ok {
			all[i] = math.Inf(1)
			continue
		}
		all[i] = l
		p.ok++
		p.committed += book.committed(reqs[i].spec)
		if reqs[i].cold {
			p.cold = append(p.cold, l)
		} else {
			p.cached = append(p.cached, l)
		}
	}
	// The mean number of requests outstanding (due, not yet answered)
	// over each half of the phase, by Little's law: the summed latency of
	// the requests due in that half over its length. A backlog that
	// grows leaves the second half with more; counting at two instants
	// instead swings with single bursts.
	for i, o := range out {
		h := 0
		if due[i] >= dur/2 {
			h = 1
		}
		p.backlog[h] += o.latency.Seconds() / (dur / 2).Seconds()
	}
	p.p50, p.p99, p.lagP99 = quantile(all, 0.5), quantile(all, 0.99), quantile(lags, 0.99)
	p.achieved = float64(p.ok) / dur.Seconds()
	p.met = p.ok == p.sent && p.p99 <= float64(serveLimit.Milliseconds()) &&
		p.backlog[1] <= 1.5*p.backlog[0]+float64(runtime.GOMAXPROCS(0))
	return p
}

func runServe(e *env) (*report, error) {
	rep := newReport()
	c := newClient()
	defer c.CloseIdleConnections()

	// Set-up, seven times: start a node and warm the hot set. The last
	// node serves the timed phase.
	var n *node
	var setups []float64
	for i := 0; i < 7; i++ {
		if n != nil {
			if err := n.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if n, err = serveSetup(c); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setup := median(setups)
	defer func() { n.stop() }()
	rep.notes = append(rep.notes, fmt.Sprintf("{rate req/s, share of run} %v, %.0f%% cold, p99 limit %v, hot set %d specs",
		servePlan, 100*serveColdShare, serveLimit, len(hotSpecs())))

	// A traced run splits its time between an untraced baseline and the
	// traced phases.
	tr := e.tr
	e.tr = nil
	timed := e.seconds
	if tr != nil {
		timed /= 2
	}
	book := newResultBook()
	cold := newColdSource(e.rng, hotSpecs())
	phases := servePhases(e, n, c, book, rep, cold, timed)
	for _, p := range phases {
		rep.notes = append(rep.notes, fmt.Sprintf("rate %4.0f/s: sent %d ok %d  p50 %.3f ms  p99 %.3f ms  lag p99 %.3f ms  backlog %.1f->%.1f  met=%v  cached %d p50 %.3f ms  cold %d p50 %.3f ms",
			p.rate, p.sent, p.ok, p.p50, p.p99, p.lagP99, p.backlog[0], p.backlog[1], p.met,
			len(p.cached), quantile(p.cached, 0.5), len(p.cold), quantile(p.cold, 0.5)))
	}
	// The schedule fixes how long each phase lasts, so serve's gated
	// figures come from what the server spends on the lowest rate's
	// requests instead: wall_s is the CPU time the process spent in that
	// phase, sim_minst_per_s its answers' committed instructions per CPU
	// second. Their latency would say more, but on a shared 2-vCPU VM
	// its class medians drifted by 50% within minutes, against 20% for
	// the CPU time, so it is printed and not gated.
	low := phases[0]
	if tr == nil {
		rep.metrics["setup_s"] = setup
		rep.metrics["wall_s"] = low.cpu
		rep.metrics["sim_minst_per_s"] = float64(low.committed) / 1e6 / low.cpu
		rep.metrics["retained_heap_mb"] = retainedHeapMB()
		mid := phases[len(phases)/2]
		rep.metrics["cached_p50_ms"] = quantile(mid.cached, 0.5)
		rep.metrics["cached_p99_ms"] = quantile(mid.cached, 0.99)
		rep.metrics["cold_p50_ms"] = quantile(mid.cold, 0.5)
		rep.metrics["cold_p90_ms"] = quantile(mid.cold, 0.9)
		for _, p := range phases {
			if p.met {
				rep.metrics["max_ok_rate"] = p.achieved
			}
		}
		if _, err := book.verify(rep, c, n.url, harness.NewSuite(workloads.SizeTest)); err != nil {
			return nil, err
		}
		return rep, nil
	}

	// Traced run: the phases above were the untraced baseline; a fresh
	// node now takes the same traffic shape with spans on.
	if _, err := book.verify(rep, c, n.url, harness.NewSuite(workloads.SizeTest)); err != nil {
		return nil, err
	}
	if err := n.stop(); err != nil {
		return nil, err
	}
	n, err := serveSetup(c)
	if err != nil {
		return nil, err
	}
	e.tr = tr
	book = newResultBook()
	r0 := readRuntime()
	tphases := servePhases(e, n, c, book, rep, cold, timed)
	addRuntimeDelta(rep.metrics, r0, readRuntime())
	rep.metrics["trace_overhead_share"] = tphases[0].cpu/low.cpu - 1

	var outs []outcome
	for _, p := range tphases {
		outs = append(outs, p.out...)
	}
	addLoadgenMetrics(rep.metrics, outs)

	sc, err := fetchScrape(c, n.url)
	if err != nil {
		return nil, err
	}
	addServiceMetrics(rep.metrics, sc)
	jobs, err := countJobs(c, n.url)
	if err != nil {
		return nil, err
	}
	rep.metrics["service.jobs_retained"] = float64(jobs)

	// The harness cost of one cached lookup, on a suite holding a hot cell.
	rj, err := hotSpecs()[0].Resolve(workloads.SizeTest)
	if err != nil {
		return nil, err
	}
	hc := cell{app: rj.Workload, arch: rj.Arch, size: rj.Size}
	s := harness.NewSuite(workloads.SizeTest)
	if _, err := s.Run(hc.app, hc.arch, false); err != nil {
		return nil, err
	}
	if rep.metrics["harness.cached_run_us"], err = cachedRunUS(s, hc); err != nil {
		return nil, err
	}
	// Cached p50 at the lowest rate, where queueing adds least.
	rep.metrics["service.http_overhead_us"] = quantile(tphases[0].cached, 0.5)*1e3 - rep.metrics["harness.cached_run_us"]

	cells, err := book.verify(rep, c, n.url, harness.NewSuite(workloads.SizeTest))
	if err != nil {
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

// addServiceMetrics reads the service layer from a /metrics scrape.
func addServiceMetrics(m map[string]float64, sc scrape) {
	m["service.queue_wait_p99_ms"] = sc.quantileMS("clusterd_job_queue_wait_seconds", 0.99)
	m["service.simulate_p50_ms"] = sc.quantileMS("clusterd_simulate_seconds", 0.5)
	m["service.cache_write_p50_ms"] = sc.quantileMS("clusterd_cache_write_seconds", 0.5)
	m["service.rejected"] = sc.sum("clusterd_jobs_rejected_total")
	hits, misses := sc.sum("clusterd_cache_hits_total"), sc.sum("clusterd_cache_misses_total")
	if hits+misses > 0 {
		m["service.cache_hit_share"] = hits / (hits + misses)
	}
	accepted, sims := sc.sum("clusterd_jobs_accepted_total"), sc.sum("clusterd_simulations_total")
	m["harness.requests"] += accepted
	m["harness.simulations"] += sims
	if m["harness.requests"] > 0 {
		m["harness.dedup_share"] = 1 - m["harness.simulations"]/m["harness.requests"]
	}
}

// countJobs returns how many jobs the server's job table retains.
func countJobs(c *http.Client, base string) (int, error) {
	resp, err := c.Get(base + "/v1/jobs")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, err
	}
	return len(v.Jobs), nil
}
