package workloads

import (
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/parallel"
)

func runSynth(t *testing.T, spec SyntheticSpec, arch config.Arch) *core.Result {
	t.Helper()
	w := Synthetic(spec)
	m := config.LowEnd(arch)
	p := w.Build(m.Threads(), m.Chips, SizeTest)
	sim, err := core.New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.MaxCycles = 200_000_000
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSyntheticRunsFunctionally(t *testing.T) {
	specs := []SyntheticSpec{
		{},
		{ParCap: 2, ChainLen: 4},
		{IndepOps: 8, MemOps: 3, SerialIters: 200},
		{FootprintKB: 128, MemOps: 4},
	}
	for _, spec := range specs {
		w := Synthetic(spec)
		for _, threads := range []int{1, 8} {
			p := w.Build(threads, 1, SizeTest)
			if _, err := parallel.RunFunctional(p, threads, 50_000_000); err != nil {
				t.Fatalf("%s threads=%d: %v", w.Name, threads, err)
			}
		}
	}
}

// TestSyntheticChainLowersILP: a long carried chain must lower measured
// IPC on a wide core compared to an independent-ops body.
func TestSyntheticChainLowersILP(t *testing.T) {
	indep := runSynth(t, SyntheticSpec{IndepOps: 8, Iters: 1024}, config.FA1)
	chain := runSynth(t, SyntheticSpec{ChainLen: 8, Iters: 1024}, config.FA1)
	if chain.IPC >= indep.IPC {
		t.Errorf("chain IPC %.2f >= independent IPC %.2f", chain.IPC, indep.IPC)
	}
}

// TestSyntheticParCapLimitsThreads: a ParCap of 2 must keep average
// running threads near 2 on the 8-context FA8 (the rest park at the
// barrier).
func TestSyntheticParCapLimitsThreads(t *testing.T) {
	res := runSynth(t, SyntheticSpec{ParCap: 2, Iters: 2048, ChainLen: 2}, config.FA8)
	if res.AvgRunningThreads > 3.5 {
		t.Errorf("avg running threads = %.2f, want ~2", res.AvgRunningThreads)
	}
}

// TestSyntheticPlaneResponse: the architectures must respond to the
// synthetic plane the way the §2 model predicts — a thready low-ILP
// point favors FA8 over FA1; a narrow high-ILP point favors FA1 over
// FA8.
func TestSyntheticPlaneResponse(t *testing.T) {
	thready := SyntheticSpec{ChainLen: 8, Iters: 2048} // all threads, ILP ~1-2
	fa8 := runSynth(t, thready, config.FA8)
	fa1 := runSynth(t, thready, config.FA1)
	if fa8.Cycles >= fa1.Cycles {
		t.Errorf("thready point: FA8 %d cycles >= FA1 %d", fa8.Cycles, fa1.Cycles)
	}

	narrow := SyntheticSpec{ParCap: 1, IndepOps: 10, Iters: 2048}
	fa8n := runSynth(t, narrow, config.FA8)
	fa1n := runSynth(t, narrow, config.FA1)
	if fa1n.Cycles >= fa8n.Cycles {
		t.Errorf("narrow point: FA1 %d cycles >= FA8 %d", fa1n.Cycles, fa8n.Cycles)
	}
}

// TestSyntheticSerialAmdahl: adding serial iterations must slow the
// many-thread machine disproportionately.
func TestSyntheticSerialAmdahl(t *testing.T) {
	base := runSynth(t, SyntheticSpec{ChainLen: 2, Iters: 2048}, config.FA8)
	serial := runSynth(t, SyntheticSpec{ChainLen: 2, Iters: 2048, SerialIters: 3000}, config.FA8)
	if serial.Cycles <= base.Cycles {
		t.Errorf("serial section did not cost cycles: %d vs %d", serial.Cycles, base.Cycles)
	}
	if serial.Slots.Counts[2] <= base.Slots.Counts[2] { // sync slots
		t.Error("serial section did not raise sync slots")
	}
}

// TestSyntheticFootprintRaisesMemory: spilling the working set past the
// L1 must raise the memory-hazard share.
func TestSyntheticFootprintRaisesMemory(t *testing.T) {
	small := runSynth(t, SyntheticSpec{MemOps: 4, FootprintKB: 16, Iters: 2048}, config.SMT2)
	big := runSynth(t, SyntheticSpec{MemOps: 4, FootprintKB: 512, Iters: 2048}, config.SMT2)
	if big.Slots.Fraction(5) <= small.Slots.Fraction(5) { // stats.Memory
		t.Errorf("memory fraction did not rise: %.3f vs %.3f",
			big.Slots.Fraction(5), small.Slots.Fraction(5))
	}
}

// TestParseSynthetic pins the name grammar: every canonical name (with
// and without the warm-up suffix) round-trips through ParseSynthetic
// and ByName, and anything non-canonical — wrong key, extra field,
// defaulted-field mismatch — is rejected, keeping one name per spec.
func TestParseSynthetic(t *testing.T) {
	for _, spec := range []SyntheticSpec{
		{},
		{ParCap: 2, ChainLen: 4, IndepOps: 1, MemOps: 3, FootprintKB: 64, Iters: 1024, SerialIters: 32, Steps: 3},
		{ChainLen: 2, IndepOps: 2, Iters: 256, WarmupIters: 1500},
	} {
		name := Synthetic(spec).Name
		w, err := ParseSynthetic(name)
		if err != nil {
			t.Errorf("ParseSynthetic(%q): %v", name, err)
			continue
		}
		if w.Name != name {
			t.Errorf("ParseSynthetic(%q) returned %q", name, w.Name)
		}
		if bn, err := ByName(name); err != nil || bn.Name != name {
			t.Errorf("ByName(%q) = %q, %v", name, bn.Name, err)
		}
	}

	for _, bad := range []string{
		"",
		"swim",
		"synth()",
		"synth(p0,c0,i0)",
		"synth(p0,c0,i0,m1,f16,n4096,s0,t2,w0)", // w0 is elided in canonical names
		"synth(p0,c0,i0,m0,f16,n4096,s0,t2)",    // MemOps defaults to 1, so m0 never renders
		"synth(p0,c0,i0,m1,f16,n4096,s0,t2,x5)", // wrong key
		"synth(p0,c0,i0,m1,f16,n4096,s0,t2,w1,w2)", // too many fields
		"synth(p0,c0,i0,m1,f16,nABC,s0,t2)",
	} {
		if _, err := ParseSynthetic(bad); err == nil {
			t.Errorf("ParseSynthetic(%q) accepted a non-canonical name", bad)
		}
	}
}

// TestSyntheticValidate pins the spec bounds: the reproducers of an
// unbounded footprint and of negative knobs are refused by Validate,
// ParseSynthetic and ByName alike, while every cap admits the largest
// spec the repository's sweeps and benchmark generate.
func TestSyntheticValidate(t *testing.T) {
	for _, name := range []string{
		"synth(p1,c1,i1,m1,f1073741824,n1,s1,t1)", // 1 TiB footprint
		"synth(p-5,c-1,i1,m1,f16,n1,s1,t1)",       // negative knobs
		"synth(p0,c0,i0,m1,f16,n4096,s-3,t2)",
		"synth(p0,c0,i0,m1,f16,n4096,s0,t2,w2000000)",
		"synth(p9,c0,i0,m1,f16,n4096,s0,t2)",
		"synth(p0,c65,i0,m1,f16,n4096,s0,t2)",
	} {
		if _, err := ParseSynthetic(name); err == nil {
			t.Errorf("ParseSynthetic(%q) accepted an out-of-range spec", name)
		}
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted an out-of-range spec", name)
		}
	}
	for _, bad := range []SyntheticSpec{
		{FootprintKB: -1},
		{Iters: MaxSyntheticIters + 1},
		{Steps: MaxSyntheticSteps + 1},
		{MemOps: MaxSyntheticBodyOps + 1},
	} {
		if bad.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want an error", bad)
		}
	}
	for _, ok := range []SyntheticSpec{
		{},
		// The largest knobs the benchmark's serve and sweep workloads
		// and cmd/sweep draw.
		{ParCap: 6, ChainLen: 8, IndepOps: 6, MemOps: 3, FootprintKB: 128,
			Iters: 2048, SerialIters: 32, Steps: 2, WarmupIters: 5520},
		{ParCap: MaxSyntheticParCap, ChainLen: MaxSyntheticBodyOps, IndepOps: MaxSyntheticBodyOps,
			MemOps: MaxSyntheticBodyOps, FootprintKB: MaxSyntheticFootprintKB, Iters: MaxSyntheticIters,
			SerialIters: MaxSyntheticIters, Steps: MaxSyntheticSteps, WarmupIters: MaxSyntheticIters},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", ok, err)
		}
		name := Synthetic(ok).Name
		if _, err := ParseSynthetic(name); err != nil {
			t.Errorf("ParseSynthetic(%q): %v", name, err)
		}
	}
}
