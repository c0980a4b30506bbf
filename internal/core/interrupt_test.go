package core

import (
	"errors"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/obs"
	"clustersmt/internal/prog"
)

// buildCancelChase returns a pointer chase of dependent missing loads:
// the run spends almost all of its cycles inside quiescence
// fast-forward jumps, each one memory-latency long. This is the
// workload shape that used to defeat the iteration-counted interrupt
// poll — 1024 loop iterations of ~70-cycle jumps deferred cancellation
// by tens of thousands of cycles.
func buildCancelChase() *prog.Program {
	b := prog.NewBuilder("cancelchase")
	n := int64(8192)
	data := b.Global("chain", n)
	b.Li(1, 0)
	b.Li(2, 4000)
	b.Li(3, data)
	b.CountedLoop(1, 2, func() {
		b.Ld(3, 3, 0)
	})
	b.Halt()
	p := b.MustBuild()
	// Strided cyclic permutation: each hop lands on a new line.
	for i := int64(0); i < n; i++ {
		next := (i + 97) % n
		p.Init[data+i*prog.WordSize] = uint64(data + next*prog.WordSize)
	}
	return p
}

// TestInterruptBoundedDuringFastForward is the regression test for the
// cancellation-latency fix: closing the Interrupt channel in the middle
// of a fast-forward-dominated run must surface ErrInterrupted within
// interruptPeriod cycles plus at most one quiescence jump — not after
// interruptPeriod further jumps. The run is deterministic, so two runs
// interrupted at the same frame must fail with the identical error
// (same reported cycle).
func TestInterruptBoundedDuringFastForward(t *testing.T) {
	m := config.LowEnd(config.FA1)
	const closeAfter = 30_000

	run := func() (closeCycle, errCycle, ffAtClose int64, err error) {
		s, nerr := New(m, buildCancelChase())
		if nerr != nil {
			t.Fatal(nerr)
		}
		intr := make(chan struct{})
		s.Interrupt = intr
		s.EnableMetrics(25, 0)
		closed := false
		s.OnInterval(func(f obs.Frame) {
			if !closed && f.End >= closeAfter {
				closed = true
				closeCycle = f.End
				ffAtClose = s.FastForwarded()
				close(intr)
			}
		})
		_, err = s.Run()
		if !closed {
			t.Fatal("run finished before the interrupt point; kernel too short for the test")
		}
		return closeCycle, s.cycle, ffAtClose, err
	}

	c1, e1, ff1, err1 := run()
	if !errors.Is(err1, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err1)
	}
	if ff1 == 0 {
		t.Fatal("fast-forward never engaged before the interrupt; latency test is vacuous")
	}
	// The poll is keyed to the cycle count: after the close at cycle c1,
	// the next poll boundary is at most interruptPeriod cycles away, and
	// the clock can overshoot it by at most one quiescence jump (bounded
	// by the memory round trip for this kernel). The iteration-counted
	// poll this replaces had a worst case of interruptPeriod *jumps* —
	// tens of thousands of cycles — which this bound rejects.
	const slack = 512
	if lat := e1 - c1; lat < 0 || lat > interruptPeriod+slack {
		t.Errorf("interrupt latency %d cycles (closed at %d, stopped at %d), want <= %d",
			lat, c1, e1, int64(interruptPeriod+slack))
	}

	c2, e2, _, err2 := run()
	if c1 != c2 || e1 != e2 || err1.Error() != err2.Error() {
		t.Errorf("interrupted runs diverge:\n  run1: close %d stop %d err %v\n  run2: close %d stop %d err %v",
			c1, e1, err1, c2, e2, err2)
	}
}
