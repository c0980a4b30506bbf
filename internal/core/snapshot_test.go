package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// checkpointSpec is the workload the checkpoint differentials run: a
// synthetic kernel exercising every subsystem a snapshot must carry —
// FP chains (float accumulators), memory traffic (caches, MSHRs, TLB,
// directory), a serial section (sync blocking) and a warm-up prefix.
func checkpointSpec() workloads.SyntheticSpec {
	return workloads.SyntheticSpec{
		ParCap: 6, ChainLen: 2, IndepOps: 2, MemOps: 2,
		FootprintKB: 64, Iters: 768, SerialIters: 48, Steps: 2,
		WarmupIters: 200,
	}
}

// offCounters collects the counters a Result does not carry — per-chip
// cache, bank, TLB and MSHR state, directory population, network
// arbitration — so the differentials prove the whole machine restored,
// not just the reported figures.
type offCounters struct {
	Chips []chipCounters
	Dir   struct {
		Lines                                           int
		Invalidations, Downgrades, Writebacks, ThreeHop uint64
	}
	NetMessages, NetConflicts, NetBusy uint64
}

type chipCounters struct {
	L1Hits, L1Misses, L1Evict, L1Wb     uint64
	L2Hits, L2Misses, L2Evict, L2Wb     uint64
	L1BankConf, L1BankBusy              uint64
	L2BankConf, L2BankBusy              uint64
	TLBHit, TLBMiss, TLBMissStalls      uint64
	MSHRMerges, MSHRRejected, MSHRAlloc uint64
}

func offCountersOf(s *Simulator) offCounters {
	var o offCounters
	sys := s.MemSystem()
	for _, c := range sys.Chips {
		o.Chips = append(o.Chips, chipCounters{
			L1Hits: c.L1.Hits, L1Misses: c.L1.Misses, L1Evict: c.L1.Evictions, L1Wb: c.L1.WritebackEvictions,
			L2Hits: c.L2.Hits, L2Misses: c.L2.Misses, L2Evict: c.L2.Evictions, L2Wb: c.L2.WritebackEvictions,
			L1BankConf: c.L1Banks.Conflicts, L1BankBusy: c.L1Banks.BusyCycles,
			L2BankConf: c.L2Banks.Conflicts, L2BankBusy: c.L2Banks.BusyCycles,
			TLBHit: c.TLB.Hit, TLBMiss: c.TLB.Miss, TLBMissStalls: c.TLBMissStalls,
			MSHRMerges: c.MSHR.Merges, MSHRRejected: c.MSHR.Rejected, MSHRAlloc: c.MSHR.Allocated,
		})
	}
	o.Dir.Lines = sys.Dir.Lines()
	o.Dir.Invalidations = sys.Dir.Invalidations
	o.Dir.Downgrades = sys.Dir.Downgrades
	o.Dir.Writebacks = sys.Dir.Writebacks
	o.Dir.ThreeHop = sys.Dir.ThreeHops
	o.NetMessages = sys.Net.Messages
	o.NetConflicts = sys.Net.Conflicts
	o.NetBusy = sys.Net.BusyCycles
	return o
}

// compareRuns asserts two completed simulators agree on the Result, the
// off-Result counters and the observability frames.
func compareRuns(t *testing.T, label string, want, got *Result, ws, gs *Simulator) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: Result diverged:\nwant %+v\ngot  %+v", label, want, got)
	}
	if wo, go_ := offCountersOf(ws), offCountersOf(gs); !reflect.DeepEqual(wo, go_) {
		t.Errorf("%s: off-Result counters diverged:\nwant %+v\ngot  %+v", label, wo, go_)
	}
	wr, gr := ws.Metrics(), gs.Metrics()
	if (wr == nil) != (gr == nil) {
		t.Fatalf("%s: metrics ring presence differs", label)
	}
	if wr != nil {
		if !reflect.DeepEqual(wr.Frames(), gr.Frames()) {
			t.Errorf("%s: obs frames diverged (%d vs %d frames)", label, len(wr.Frames()), len(gr.Frames()))
		}
		if wr.Dropped() != gr.Dropped() {
			t.Errorf("%s: obs drop accounting diverged: %d vs %d", label, wr.Dropped(), gr.Dropped())
		}
	}
}

// TestCheckpointDifferential is the contract test for checkpoint/
// restore and fork: on every Table 2 preset, low- and high-end,
// a run resumed from a mid-run snapshot — and
// a run forked from a paused parent, and the parent itself continuing —
// must be bit-identical (reflect.DeepEqual on the full Result, the
// off-Result memory/coherence counters and the obs frames) to running
// from scratch.
func TestCheckpointDifferential(t *testing.T) {
	w := workloads.Synthetic(checkpointSpec())
	for _, arch := range config.AllArchs {
		for _, highEnd := range []bool{false, true} {
			m := config.LowEnd(arch)
			if highEnd {
				m = config.HighEnd(arch)
			}
			// "/sequential" names the cycle loop under test.
			t.Run(m.Name+"/sequential", func(t *testing.T) {
				build := func() *prog.Program {
					return w.Build(m.Threads(), m.Chips, workloads.SizeTest)
				}
				mkSim := func() *Simulator {
					s, err := New(m, build())
					if err != nil {
						t.Fatal(err)
					}
					s.EnableMetrics(2048, 64)
					return s
				}
				run := func(s *Simulator) *Result {
					r, err := s.Run()
					if err != nil {
						t.Fatal(err)
					}
					return r
				}

				scratch := mkSim()
				ref := run(scratch)
				half := ref.Cycles / 2
				if half < 1 {
					half = 1
				}

				// Snapshot → Restore → continue.
				paused := mkSim()
				if err := paused.RunTo(half); err != nil {
					t.Fatal(err)
				}
				data, err := paused.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				restored, err := Restore(m, build(), data)
				if err != nil {
					t.Fatal(err)
				}
				compareRuns(t, "restore", ref, run(restored), scratch, restored)

				// Fork → child continues; the snapshotted parent also
				// continues (snapshot and fork must not perturb it).
				child, err := paused.Fork()
				if err != nil {
					t.Fatal(err)
				}
				compareRuns(t, "fork-child", ref, run(child), scratch, child)
				compareRuns(t, "parent-continue", ref, run(paused), scratch, paused)
			})
		}
	}
}

// TestForkCrossVariant checks the warm-up amortization primitive: a
// parent paused inside the shared warm-up prefix forks into a program
// variant with different post-prefix code, and the child's full run is
// bit-identical to running that variant from scratch. Both the
// in-memory ForkProgram path and the serialized Snapshot→Restore path
// are exercised.
func TestForkCrossVariant(t *testing.T) {
	base := checkpointSpec()
	base.WarmupIters = 1500
	variant := base
	variant.ChainLen = 6
	variant.IndepOps = 0
	variant.Iters = 512

	for _, m := range []config.Machine{config.LowEnd(config.FA4), config.HighEnd(config.SMT4)} {
		t.Run(m.Name, func(t *testing.T) {
			buildBase := workloads.Synthetic(base).Build
			buildVar := workloads.Synthetic(variant).Build

			parent, err := New(m, buildBase(m.Threads(), m.Chips, workloads.SizeTest))
			if err != nil {
				t.Fatal(err)
			}
			parent.EnableMetrics(2048, 64)
			if err := parent.RunTo(1000); err != nil {
				t.Fatal(err)
			}
			if parent.Done() {
				t.Fatal("warm-up finished before the pause point; lengthen WarmupIters")
			}
			if !parent.PrefixValid() {
				t.Fatalf("execution escaped the prefix during warm-up (high water %d, prefix %d)",
					parent.PCHighWater(), parent.Program.PrefixLen)
			}

			scratch, err := New(m, buildVar(m.Threads(), m.Chips, workloads.SizeTest))
			if err != nil {
				t.Fatal(err)
			}
			scratch.EnableMetrics(2048, 64)
			ref, err := scratch.Run()
			if err != nil {
				t.Fatal(err)
			}

			child, err := parent.ForkProgram(buildVar(m.Threads(), m.Chips, workloads.SizeTest))
			if err != nil {
				t.Fatal(err)
			}
			got, err := child.Run()
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, "fork-variant", ref, got, scratch, child)

			data, err := parent.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(m, buildVar(m.Threads(), m.Chips, workloads.SizeTest), data)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := restored.Run()
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, "restore-variant", ref, got2, scratch, restored)
		})
	}
}

// snapshotFixture builds a small paused simulator and its snapshot for
// the error-path tests.
func snapshotFixture(t *testing.T) (config.Machine, func() *prog.Program, *Simulator, []byte) {
	t.Helper()
	m := config.LowEnd(config.FA4)
	w := workloads.Synthetic(checkpointSpec())
	build := func() *prog.Program { return w.Build(m.Threads(), m.Chips, workloads.SizeTest) }
	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunTo(500); err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return m, build, s, data
}

// TestSnapshotVersionError checks that a checkpoint with an unknown
// format version is refused with the typed error.
func TestSnapshotVersionError(t *testing.T) {
	m, build, _, data := snapshotFixture(t)
	bad := append([]byte(nil), data...)
	bad[4]++ // version is the little-endian u32 at offset 4
	if _, err := Restore(m, build(), bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("got %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotTruncated checks that cut-off payloads surface the typed
// truncation error at every plausible cut point, without panicking.
func TestSnapshotTruncated(t *testing.T) {
	m, build, _, data := snapshotFixture(t)
	for _, n := range []int{0, 3, 7, 40, 80, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Restore(m, build(), data[:n]); !errors.Is(err, ErrSnapshotTruncated) {
			t.Errorf("truncation at %d of %d: got %v, want ErrSnapshotTruncated", n, len(data), err)
		}
	}
	bloated := append(append([]byte(nil), data...), 0)
	if _, err := Restore(m, build(), bloated); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("trailing byte: got %v, want ErrSnapshotCorrupt", err)
	}
	badMagic := append([]byte(nil), data...)
	badMagic[0] ^= 0xff
	if _, err := Restore(m, build(), badMagic); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("bad magic: got %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSnapshotMismatch checks machine- and program-identity rejection.
func TestSnapshotMismatch(t *testing.T) {
	m, build, _, data := snapshotFixture(t)
	other := config.HighEnd(config.FA4)
	if _, err := Restore(other, build(), data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("machine mismatch: got %v, want ErrSnapshotMismatch", err)
	}
	spec := checkpointSpec()
	spec.FootprintKB = 128 // different data image: prefix key differs too
	ow := workloads.Synthetic(spec)
	if _, err := Restore(m, ow.Build(m.Threads(), m.Chips, workloads.SizeTest), data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("program mismatch: got %v, want ErrSnapshotMismatch", err)
	}
}

// TestSnapshotUnsupported checks the refused configurations.
func TestSnapshotUnsupported(t *testing.T) {
	m := config.LowEnd(config.SMT4)
	w := workloads.Synthetic(checkpointSpec())
	p := w.Build(m.Threads(), m.Chips, workloads.SizeTest)

	ref, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetReferenceMemPaths(true)
	if _, err := ref.Snapshot(); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("reference paths: got %v, want ErrSnapshotUnsupported", err)
	}

	multi, err := NewMulti(m, []*prog.Program{p, p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.Snapshot(); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("multiprogrammed: got %v, want ErrSnapshotUnsupported", err)
	}
}

// TestFailedForkLeavesParentIntact checks the no-partial-mutation
// contract from the caller's side: after a refused ForkProgram (no
// shared prefix), the parent continues to a Result identical to an
// undisturbed twin's.
func TestFailedForkLeavesParentIntact(t *testing.T) {
	m := config.LowEnd(config.FA2)
	w := workloads.Synthetic(checkpointSpec())
	build := func() *prog.Program { return w.Build(m.Threads(), m.Chips, workloads.SizeTest) }

	twin, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := twin.Run()
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunTo(ref.Cycles / 2); err != nil {
		t.Fatal(err)
	}
	spec := checkpointSpec()
	spec.FootprintKB = 128
	incompatible := workloads.Synthetic(spec).Build(m.Threads(), m.Chips, workloads.SizeTest)
	if _, err := s.ForkProgram(incompatible); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("incompatible fork: got %v, want ErrSnapshotMismatch", err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("parent perturbed by failed fork:\nwant %+v\ngot  %+v", ref, got)
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to Restore: it must reject
// them with an error, never panic. Seeded with a valid snapshot so the
// fuzzer starts inside the interesting decode paths.
func FuzzSnapshotDecode(f *testing.F) {
	m := config.LowEnd(config.FA4)
	w := workloads.Synthetic(checkpointSpec())
	build := func() *prog.Program { return w.Build(m.Threads(), m.Chips, workloads.SizeTest) }
	s, err := New(m, build())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.RunTo(400); err != nil {
		f.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	p := build()
	f.Fuzz(func(t *testing.T, b []byte) {
		sim, err := Restore(m, p, b)
		if err == nil && sim == nil {
			t.Fatal("nil simulator without error")
		}
	})
}

// TestSnapshotGolden decodes the committed fixture — a checkpoint
// written by an earlier build — and runs it to completion, comparing
// against a from-scratch run of the same program. This is the format-
// compatibility tripwire: any encoding change that invalidates old
// checkpoints must bump SnapshotVersion and regenerate the fixture
// (WRITE_GOLDEN=1 go test ./internal/core -run TestSnapshotGolden).
func TestSnapshotGolden(t *testing.T) {
	golden := filepath.Join("testdata", "checkpoint_v1.bin")
	m := config.LowEnd(config.FA4)
	w := workloads.Synthetic(checkpointSpec())
	build := func() *prog.Program { return w.Build(m.Threads(), m.Chips, workloads.SizeTest) }

	if os.Getenv("WRITE_GOLDEN") != "" {
		s, err := New(m, build())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunTo(500); err != nil {
			t.Fatal(err)
		}
		data, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(data))
	}

	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with WRITE_GOLDEN=1): %v", err)
	}
	restored, err := Restore(m, build(), data)
	if err != nil {
		t.Fatalf("golden fixture no longer decodes — bump SnapshotVersion and regenerate: %v", err)
	}
	got, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("golden checkpoint run diverged from scratch run:\nwant %+v\ngot  %+v", want, got)
	}
}

// snapshotFixtureSHA256 pins the exact bytes of snapshotFixture's
// checkpoint (LowEnd FA4, checkpointSpec, paused at cycle 500). clusterd
// stores checkpoints content-addressed by this digest and the fabric
// ships them between nodes, so an encoding change that keeps
// TestSnapshotGolden green but moves a byte still breaks every persisted
// store key; it must bump SnapshotVersion instead of slipping through.
const snapshotFixtureSHA256 = "e4877c1c8e4d1595ff06b84b069f1f993eb4dc5667d9e4a838eb14a13cf71b7b"

// TestSnapshotBytesPinned checks the checkpoint bytes against the pin.
func TestSnapshotBytesPinned(t *testing.T) {
	_, _, _, data := snapshotFixture(t)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != snapshotFixtureSHA256 {
		t.Fatalf("snapshot bytes changed: sha256 %s, pinned %s (%d bytes)", got, snapshotFixtureSHA256, len(data))
	}
}

// TestSnapshotRetiredSlot checks the core section's retired slot (it
// held the cycle counter of a since-deleted per-chip parallel loop):
// this build writes it as zero, and a checkpoint carrying a non-zero
// value there — as the older writer produced — still restores, runs
// to the same Result and re-encodes to the canonical bytes.
func TestSnapshotRetiredSlot(t *testing.T) {
	m, build, _, data := snapshotFixture(t)
	// Header: magic, version, three length-prefixed 32-byte hashes and
	// the prefix flag; then seven 8-byte scalars precede the slot.
	const off = 4 + 4 + 3*(4+32) + 1 + 7*8
	if got := binary.LittleEndian.Uint64(data[off:]); got != 0 {
		t.Fatalf("retired slot holds %d, want 0", got)
	}
	legacy := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(legacy[off:], 12345)

	run := func(payload []byte) (*Simulator, *Result) {
		s, err := Restore(m, build(), payload)
		if err != nil {
			t.Fatal(err)
		}
		again, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("restored checkpoint does not re-encode to the canonical bytes")
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s, r
	}
	ws, want := run(data)
	gs, got := run(legacy)
	compareRuns(t, "legacy-slot", want, got, ws, gs)
}
