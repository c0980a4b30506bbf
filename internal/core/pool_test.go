package core

import (
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/workloads"
)

// TestSteadyStateAllocFree pins the entry pool's purpose: once the
// windows have filled, the cycle loop allocates nothing. Ocean is
// warmed on the largest window (low-end SMT1, 128 entries) and on the
// four-chip high-end SMT2, then one further 2000-cycle stretch must run
// without a single heap allocation. The ref input is used because the
// test input finishes in under 4000 cycles; the warm-up also covers the
// one-time growth outside the window (directory table, barrier maps,
// first-touched pages).
func TestSteadyStateAllocFree(t *testing.T) {
	const stretch = 2000
	for _, tc := range []struct {
		m    config.Machine
		warm int64
	}{
		{config.LowEnd(config.SMT1), 20000}, // of 35093 cycles
		{config.HighEnd(config.SMT2), 6000}, // of 11372 cycles
	} {
		m := tc.m
		t.Run(m.Name, func(t *testing.T) {
			p := workloads.Ocean().Build(m.Threads(), m.Chips, workloads.SizeRef)
			s, err := New(m, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunTo(tc.warm); err != nil {
				t.Fatal(err)
			}
			target := s.Cycle()
			allocs := testing.AllocsPerRun(1, func() {
				target += stretch
				if err := s.RunTo(target); err != nil {
					t.Fatal(err)
				}
			})
			if s.Done() {
				t.Fatalf("run completed at cycle %d, before the measured stretches ended", s.Cycle())
			}
			if allocs != 0 {
				t.Errorf("steady state allocates %.1f times per %d cycles, want 0", allocs, stretch)
			}
		})
	}
}

// TestWakeupRetiredHandle pins the generation rule on a recycled slot:
// once the zombie sweep frees a slot and fetch refills it, every handle
// to the old entry is retired and reads as its committed entry did — a
// ready producer, a resolved branch, no forwarding candidate, a dropped
// wheel event — while the new occupant resolves normally.
func TestWakeupRetiredHandle(t *testing.T) {
	c := newCluster(0, 0, config.FA8)
	fetch := func() *entry {
		slot := c.newSlot()
		e := &c.pool[slot]
		*e = entry{slot: slot, seq: c.seq, isStore: true}
		c.seq++
		return e
	}
	old := fetch().ref()
	consumer := fetch()
	consumer.producers[0] = old
	consumer.fwdStore = old
	if ready, _ := c.sourcesReady(consumer, 0); ready || c.resolved(old, 0) || c.forwardingStore(consumer) == nil {
		t.Fatal("a dispatched producer must block its consumer before retiring")
	}

	c.free = append(c.free, old.slot) // the sweep frees the old entry's slot
	fresh := fetch()
	if fresh.slot != old.slot {
		t.Fatalf("fetch took slot %d, want the freed slot %d", fresh.slot, old.slot)
	}
	if c.live(old) != nil {
		t.Error("handle to the recycled slot still resolves")
	}
	if c.live(fresh.ref()) != fresh {
		t.Error("handle to the slot's new occupant does not resolve")
	}
	if c.live(handle{}) != nil {
		t.Error("nil handle resolves")
	}
	if ready, _ := c.sourcesReady(consumer, 0); !ready {
		t.Error("retired producer does not read as ready")
	}
	if !c.resolved(old, 0) {
		t.Error("retired branch does not read as resolved")
	}
	if c.forwardingStore(consumer) != nil {
		t.Error("retired forwarding candidate does not read as nil")
	}

	// A stale wheel event must be dropped, not evaluated as the slot's
	// new (dispatched, eligible, producer-free) occupant.
	c.wheel.push(5, old)
	c.drainEvents(5)
	if fresh.queued != qNone || len(c.ready) != 0 {
		t.Error("stale wheel event evaluated the slot's new occupant")
	}
}
