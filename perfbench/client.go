package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"time"

	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/service"
)

// node is one in-process clusterd: a service.Server behind an HTTP
// server on a loopback listener.
type node struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startNode(opts service.Options) (*node, error) {
	srv, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return n, nil
}

// stop drains the server (stopping its heartbeats), then shuts the
// HTTP server down and waits for its serve loop to return.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := n.srv.Close(ctx)
	if serr := n.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	<-n.done
	return err
}

// newClient returns an HTTP client holding at most two connections per
// host — the load generator's sender and waiter.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   2 * time.Minute,
	}
}

// jobReply is the part of a job view the benchmark reads.
type jobReply struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func decodeReply(resp *http.Response) (jobReply, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobReply{}, err
	}
	var j jobReply
	if err := json.Unmarshal(b, &j); err != nil {
		return jobReply{}, fmt.Errorf("job reply: %w", err)
	}
	return j, nil
}

// postJob submits a spec; the reply is final for 200 (cached) and a
// handle for 202 (queued).
func postJob(c *http.Client, base string, spec service.JobSpec) (int, jobReply, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, jobReply{}, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, jobReply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, jobReply{}, err
	}
	j, err := decodeReply(resp)
	return resp.StatusCode, j, err
}

// pollJob asks once for a job's state, waiting up to wait for it to
// become terminal, and reports whether it is.
func pollJob(c *http.Client, base, id string, wait time.Duration) (jobReply, bool, error) {
	resp, err := c.Get(base + "/v1/jobs/" + url.PathEscape(id) + "?wait=" + wait.String())
	if err != nil {
		return jobReply{}, false, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return jobReply{}, false, fmt.Errorf("GET job %s: %s", id, resp.Status)
	}
	j, err := decodeReply(resp)
	if err != nil {
		return jobReply{}, false, err
	}
	return j, j.Status == service.StateDone || j.Status == service.StateFailed, nil
}

// awaitJob long-polls a job until it is terminal.
func awaitJob(c *http.Client, base, id string) (jobReply, error) {
	for {
		j, done, err := pollJob(c, base, id, 30*time.Second)
		if err != nil || done {
			return j, err
		}
	}
}

// jobPoll is the load generator's poll of an accepted job: finish
// checks and records the final reply (or the error that ended it).
func jobPoll(c *http.Client, base, id string, finish func(jobReply, error) bool) pollFunc {
	return func(wait time.Duration) (bool, bool) {
		j, done, err := pollJob(c, base, id, wait)
		if err == nil && !done {
			return false, false
		}
		return true, finish(j, err)
	}
}

// specKey names a job spec for bookkeeping.
func specKey(s service.JobSpec) string {
	return fmt.Sprintf("%s/%s/%v/%s", s.App, s.Arch, s.HighEnd, s.Size)
}

// resultBook keeps, for every distinct spec a workload submitted, the
// first job that answered it and a digest of its result bytes; every
// later answer must carry the same bytes.
type resultBook struct {
	mu    sync.Mutex
	specs map[string]*bookEntry
}

type bookEntry struct {
	spec      service.JobSpec
	jobID     string
	sum       [32]byte
	committed uint64
}

func newResultBook() *resultBook { return &resultBook{specs: map[string]*bookEntry{}} }

// record checks one final reply; it returns an error for a failed job
// or a result that differs from an earlier answer to the same spec.
func (b *resultBook) record(spec service.JobSpec, j jobReply) error {
	if j.Status != service.StateDone {
		return fmt.Errorf("%s: job %s ended %q: %s", spec.App, j.ID, j.Status, j.Error)
	}
	sum := sha256.Sum256(j.Result)
	k := specKey(spec)
	b.mu.Lock()
	e := b.specs[k]
	b.mu.Unlock()
	if e != nil {
		if e.sum != sum {
			return fmt.Errorf("%s: job %s answered different result bytes than job %s", spec.App, j.ID, e.jobID)
		}
		return nil
	}
	var c struct{ Committed uint64 }
	if err := json.Unmarshal(j.Result, &c); err != nil {
		return fmt.Errorf("%s: result: %w", spec.App, err)
	}
	b.mu.Lock()
	if b.specs[k] == nil {
		b.specs[k] = &bookEntry{spec: spec, jobID: j.ID, sum: sum, committed: c.Committed}
	}
	b.mu.Unlock()
	return nil
}

// sameAs reports, into rep, every spec whose result bytes differ from
// those ref recorded for it (a repeat of the same inputs must answer
// the same bits).
func (b *resultBook) sameAs(rep *report, ref *resultBook) {
	for _, e := range b.entries() {
		rep.attempted++
		r := ref.specs[specKey(e.spec)]
		if r == nil || r.sum != e.sum {
			rep.fail("%s: result bytes differ from the first pass", specKey(e.spec))
		}
	}
}

func (b *resultBook) committed(spec service.JobSpec) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.specs[specKey(spec)]; e != nil {
		return e.committed
	}
	return 0
}

func (b *resultBook) entries() []*bookEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*bookEntry, 0, len(b.specs))
	for _, e := range b.specs {
		out = append(out, e)
	}
	return out
}

// verify re-reads each distinct spec's first job from the server and
// checks its result is reflect.DeepEqual to a run of the same spec on
// suite, a plain harness.Suite at the specs' input size. It returns the
// specs' cells.
func (b *resultBook) verify(rep *report, c *http.Client, base string, suite *harness.Suite) ([]cell, error) {
	entries := b.entries()
	cells := make([]cell, len(entries))
	errs := make([]error, len(entries))
	sem := make(chan struct{}, simSlots())
	var wg sync.WaitGroup
	for i, e := range entries {
		rj, err := e.spec.Resolve(suite.Size)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{app: rj.Workload, arch: rj.Arch, highEnd: rj.Spec.HighEnd, size: rj.Size}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, e *bookEntry) {
			defer func() { <-sem; wg.Done() }()
			errs[i] = verifyOne(suite, c, base, e, cells[i])
		}(i, e)
	}
	wg.Wait()
	for i, err := range errs {
		rep.attempted++
		if err != nil {
			rep.fail("verify %s: %v", specKey(entries[i].spec), err)
		}
	}
	return cells, nil
}

func verifyOne(suite *harness.Suite, c *http.Client, base string, e *bookEntry, cl cell) error {
	want, err := suite.Run(cl.app, cl.arch, cl.highEnd)
	if err != nil {
		return err
	}
	j, err := awaitJob(c, base, e.jobID)
	if err != nil {
		return err
	}
	var got core.Result
	if err := json.Unmarshal(j.Result, &got); err != nil {
		return err
	}
	if !reflect.DeepEqual(&got, want) {
		return fmt.Errorf("service result differs from a direct Suite run")
	}
	return nil
}
