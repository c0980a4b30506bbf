package main

import (
	"math/rand"
	"sync"
	"time"
)

// The load generator is open-loop: requests are due on a seeded
// Poisson schedule and each one's latency is counted from when it was
// due, so a stall in the server (or in the generator) also charges the
// requests queued behind it. It uses two goroutines: one sender issues
// every request in due order, and one waiter follows up requests whose
// answer is deferred (a job accepted with 202 completes later), so the
// generator holds at most two connections. The waiter polls its
// deferred requests in turn, each for at most pollWait, and stamps a
// request's latency when it first sees the final answer: one slow job
// does not hold up the timing of jobs that finish before it.

// pollWait bounds one poll of a deferred request; a request finishing
// while the waiter polls others is stamped at most one round later.
const pollWait = 2 * time.Millisecond

// poissonSchedule returns the due offsets of a Poisson arrival process
// at rate per second over d: exponential gaps drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// sendFunc issues one request on the sender goroutine. It returns ok
// for a final answer, or a non-nil poll for a deferred one.
type sendFunc func(i int) (ok bool, poll pollFunc)

// pollFunc checks a deferred request once on the waiter goroutine,
// waiting at most the given time for its answer. It reports whether the
// answer is final and, if so, whether the request succeeded.
type pollFunc func(wait time.Duration) (done, ok bool)

// outcome is one request's measurement.
type outcome struct {
	latency time.Duration // due -> final answer
	lag     time.Duration // due -> sent: how late the generator ran
	ok      bool
}

// openLoop runs the schedule from start and returns one outcome per
// request, in schedule order. It returns once every request has its
// final answer.
func openLoop(start time.Time, due []time.Duration, send sendFunc) []outcome {
	out := make([]outcome, len(due))
	type deferred struct {
		i    int
		poll pollFunc
	}
	// Sized to the number of sends, so the sender never blocks on the
	// waiter and a slow deferred answer cannot delay later requests'
	// send times beyond what the connection limit imposes.
	pending := make(chan deferred, len(due))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var waiting []deferred
		for {
			if len(waiting) == 0 {
				d, more := <-pending
				if !more {
					return
				}
				waiting = append(waiting, d)
			}
		take:
			for {
				select {
				case d, more := <-pending:
					if !more {
						break take
					}
					waiting = append(waiting, d)
				default:
					break take
				}
			}
			kept := waiting[:0]
			for _, d := range waiting {
				done, ok := d.poll(pollWait)
				if !done {
					kept = append(kept, d)
					continue
				}
				out[d.i].ok = ok
				out[d.i].latency = time.Since(start.Add(due[d.i]))
			}
			waiting = kept
		}
	}()
	for i, at := range due {
		if wait := time.Until(start.Add(at)); wait > 0 {
			time.Sleep(wait)
		}
		out[i].lag = time.Since(start.Add(at))
		ok, poll := send(i)
		if poll != nil {
			pending <- deferred{i, poll}
			continue
		}
		out[i].ok = ok
		out[i].latency = time.Since(start.Add(at))
	}
	close(pending)
	wg.Wait()
	return out
}

// addLoadgenMetrics reports the load generator's layer: requests sent,
// answered successfully and failed, and how late it sent them.
func addLoadgenMetrics(m map[string]float64, out []outcome) {
	lags := make([]float64, len(out))
	for i, o := range out {
		m["loadgen.sent"]++
		if o.ok {
			m["loadgen.succeeded"]++
		} else {
			m["loadgen.failed"]++
		}
		lags[i] = float64(o.lag.Nanoseconds()) / 1e6
	}
	m["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
}
