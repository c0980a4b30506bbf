package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 200, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 200, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := poissonSchedule(rand.New(rand.NewSource(8)), 200, 2*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 400 arrivals expected; a Poisson count stays well inside ±25%.
	if n := len(a); n < 300 || n > 500 {
		t.Fatalf("got %d arrivals at 200/s over 2s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("schedule not increasing within the window at %d", i)
		}
	}
}

// A stall in one request must show up in the latency of the requests
// due behind it, since latency counts from the due time.
func TestOpenLoopStallChargesLaterRequests(t *testing.T) {
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * 2 * time.Millisecond
	}
	const stall = 30 * time.Millisecond
	out := openLoop(time.Now(), due, func(i int) (bool, pollFunc) {
		if i == 5 {
			time.Sleep(stall)
		}
		return true, nil
	})
	for i := 6; i < 10; i++ {
		// Request i was due (i-5)*2 ms after the stalled one started.
		floor := stall - time.Duration(i-5)*2*time.Millisecond
		if out[i].latency < floor || out[i].lag < floor {
			t.Errorf("request %d: latency %v lag %v, want at least %v", i, out[i].latency, out[i].lag, floor)
		}
	}
	if out[0].latency > stall/2 {
		t.Errorf("request before the stall took %v", out[0].latency)
	}
}

// finishesAt is the poll of a deferred request whose answer becomes
// final at t.
func finishesAt(t time.Time) pollFunc {
	return func(wait time.Duration) (bool, bool) {
		d := time.Until(t)
		if d > wait {
			time.Sleep(wait)
			return false, false
		}
		time.Sleep(d)
		return true, true
	}
}

// Deferred answers complete on the waiter without holding up sends.
func TestOpenLoopDeferred(t *testing.T) {
	start := time.Now()
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	out := openLoop(start, due, func(i int) (bool, pollFunc) {
		if i == 0 {
			return false, finishesAt(start.Add(20 * time.Millisecond))
		}
		return i == 1, nil
	})
	if !out[0].ok || out[0].latency < 20*time.Millisecond {
		t.Errorf("deferred request: %+v", out[0])
	}
	if !out[1].ok || out[2].ok {
		t.Errorf("direct answers: %+v %+v", out[1], out[2])
	}
	if out[2].lag > 10*time.Millisecond {
		t.Errorf("send after a deferred request lagged %v", out[2].lag)
	}
}

// A deferred answer that completes before an earlier, slower one is
// timed when it completes, not when the slower one does.
func TestOpenLoopDeferredOutOfOrder(t *testing.T) {
	start := time.Now()
	const slow, fast = 80 * time.Millisecond, 10 * time.Millisecond
	due := []time.Duration{0, time.Millisecond}
	out := openLoop(start, due, func(i int) (bool, pollFunc) {
		if i == 0 {
			return false, finishesAt(start.Add(slow))
		}
		return false, finishesAt(start.Add(due[1] + fast))
	})
	if !out[0].ok || out[0].latency < slow {
		t.Errorf("slow request: %+v", out[0])
	}
	if !out[1].ok || out[1].latency < fast || out[1].latency > slow/2 {
		t.Errorf("fast request behind a slow one: latency %v, want about %v", out[1].latency, fast)
	}
}
