package workloads

import (
	"fmt"
	"strconv"
	"strings"

	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// SyntheticSpec places a parameterized workload at an arbitrary point
// of the paper's (threads × ILP) plane — the §2 chart. It is the
// workload generator behind sweep experiments: instead of the six
// calibrated applications, generate a grid of points and observe how
// each architecture responds.
type SyntheticSpec struct {
	// ParCap is the number of contexts the parallel loop occupies per
	// 8 hardware contexts (0 = all): the thread-axis knob.
	ParCap int
	// ChainLen is the number of chained FP operations per loop
	// iteration (each ~1-2 cycles of serial latency): the ILP-axis
	// knob. 0 gives a fully independent (high-ILP) loop body.
	ChainLen int
	// IndepOps is the number of independent FP operations per
	// iteration (work that can issue in parallel with the chain).
	IndepOps int
	// MemOps is the number of array loads per iteration (memory
	// pressure; the array is sized by Footprint).
	MemOps int
	// FootprintKB is the array working set in KiB (0 = 16 KiB,
	// L1-resident; larger values spill to L2/memory).
	FootprintKB int
	// Iters is the number of loop iterations distributed across the
	// participating threads (0 = 4096).
	Iters int64
	// SerialIters is a serial (thread 0) chained section per step,
	// in iterations: the Amdahl knob.
	SerialIters int64
	// Steps is the number of barrier-delimited repetitions (0 = 2).
	Steps int64
	// WarmupIters, when positive, prepends a warm-up phase — thread 0
	// runs that many iterations of a serial chained loop that also
	// walks the data array (warming caches, TLB and predictors) while
	// the other threads park at a barrier — and marks everything up to
	// and including that barrier as the program's shared prefix
	// (prog.Builder.MarkPrefix). Specs that differ only in the
	// post-prefix knobs (ParCap, ChainLen, IndepOps, MemOps, Iters,
	// SerialIters, Steps) then share a prefix key, so one warmed
	// checkpoint forks into every variant (core.ForkProgram). Specs
	// must agree on WarmupIters and FootprintKB (and machine shape) to
	// share — the prefix key hashes the data image too.
	WarmupIters int64
}

// Bounds on a SyntheticSpec (Validate). The footprint is allocated and
// initialized up front when the program is built, the body knobs unroll
// into instructions per iteration, and the iteration knobs set the run
// length, so each is capped well above any sweep in this repository but
// far below what would exhaust a host.
const (
	MaxSyntheticParCap      = 8       // contexts per 8: 8 is already "all"
	MaxSyntheticBodyOps     = 64      // ChainLen, IndepOps, MemOps
	MaxSyntheticFootprintKB = 8 << 10 // 8 MiB, 8x the chip L2
	MaxSyntheticIters       = 1 << 20 // Iters, SerialIters, WarmupIters
	MaxSyntheticSteps       = 1024
)

// Validate reports an error unless every knob is non-negative and
// within its cap. Zero still means "default" wherever withDefaults
// says so.
func (s SyntheticSpec) Validate() error {
	for _, f := range []struct {
		name   string
		v, max int64
	}{
		{"ParCap", int64(s.ParCap), MaxSyntheticParCap},
		{"ChainLen", int64(s.ChainLen), MaxSyntheticBodyOps},
		{"IndepOps", int64(s.IndepOps), MaxSyntheticBodyOps},
		{"MemOps", int64(s.MemOps), MaxSyntheticBodyOps},
		{"FootprintKB", int64(s.FootprintKB), MaxSyntheticFootprintKB},
		{"Iters", s.Iters, MaxSyntheticIters},
		{"SerialIters", s.SerialIters, MaxSyntheticIters},
		{"Steps", s.Steps, MaxSyntheticSteps},
		{"WarmupIters", s.WarmupIters, MaxSyntheticIters},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("workloads: synthetic %s = %d outside [0, %d]", f.name, f.v, f.max)
		}
	}
	return nil
}

func (s SyntheticSpec) withDefaults() SyntheticSpec {
	if s.FootprintKB <= 0 {
		s.FootprintKB = 16
	}
	if s.Iters <= 0 {
		s.Iters = 4096
	}
	if s.Steps <= 0 {
		s.Steps = 2
	}
	if s.MemOps < 1 {
		s.MemOps = 1
	}
	return s
}

// Synthetic builds a Workload from the spec. The kernel is a barrier-
// delimited parallel loop: each iteration performs MemOps strided
// loads, IndepOps independent FP multiplies and a ChainLen-long carried
// FP chain; thread 0 additionally runs SerialIters of a carried chain
// per step.
func Synthetic(spec SyntheticSpec) Workload {
	spec = spec.withDefaults()
	return Workload{
		// The name encodes the full defaulted spec: harness.Suite keys
		// its run cache by workload name, so two distinct specs must
		// never share one (and two equal specs always do).
		Name:        syntheticName(spec),
		Description: "parameterized synthetic workload (threads x ILP plane generator)",
		ParCap:      spec.ParCap,
		Build: func(threads, chips int, size Size) *prog.Program {
			return buildSynthetic(spec, threads, chips, size)
		},
	}
}

// syntheticName encodes the full defaulted spec injectively. The
// warm-up suffix appears only when set, so pre-existing spec names (and
// the run-cache keys derived from them) are unchanged.
func syntheticName(spec SyntheticSpec) string {
	name := fmt.Sprintf("synth(p%d,c%d,i%d,m%d,f%d,n%d,s%d,t%d",
		spec.ParCap, spec.ChainLen, spec.IndepOps, spec.MemOps,
		spec.FootprintKB, spec.Iters, spec.SerialIters, spec.Steps)
	if spec.WarmupIters > 0 {
		name += fmt.Sprintf(",w%d", spec.WarmupIters)
	}
	return name + ")"
}

// ParseSynthetic inverts syntheticName: it resolves a canonical
// "synth(p…,c…,i…,m…,f…,n…,s…,t…[,w…])" name back to its workload, so
// the serving subsystem can accept sweep-grid jobs by name. Only
// canonical names round-trip (the parsed spec must render back to
// exactly the input), which keeps one name per spec and the service's
// content-addressed hashes unambiguous, and only specs that pass
// Validate resolve — names arrive from the network.
func ParseSynthetic(name string) (Workload, error) {
	body, ok := strings.CutPrefix(name, "synth(")
	if ok {
		body, ok = strings.CutSuffix(body, ")")
	}
	if !ok {
		return Workload{}, fmt.Errorf("workloads: %q is not a synth(...) name", name)
	}
	fields := strings.Split(body, ",")
	keys := []string{"p", "c", "i", "m", "f", "n", "s", "t"}
	if len(fields) < len(keys) || len(fields) > len(keys)+1 {
		return Workload{}, fmt.Errorf("workloads: %q: want %d or %d spec fields", name, len(keys), len(keys)+1)
	}
	var v [9]int64
	for i, f := range fields {
		key := "w" // the optional ninth field
		if i < len(keys) {
			key = keys[i]
		}
		rest, ok := strings.CutPrefix(f, key)
		if !ok {
			return Workload{}, fmt.Errorf("workloads: %q: field %d is %q, want %q prefix", name, i, f, key)
		}
		n, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return Workload{}, fmt.Errorf("workloads: %q: field %q: %v", name, f, err)
		}
		v[i] = n
	}
	spec := SyntheticSpec{
		ParCap: int(v[0]), ChainLen: int(v[1]), IndepOps: int(v[2]),
		MemOps: int(v[3]), FootprintKB: int(v[4]), Iters: v[5],
		SerialIters: v[6], Steps: v[7], WarmupIters: v[8],
	}
	if err := spec.Validate(); err != nil {
		return Workload{}, fmt.Errorf("%w (in %q)", err, name)
	}
	w := Synthetic(spec)
	if w.Name != name {
		return Workload{}, fmt.Errorf("workloads: %q is not canonical (want %q)", name, w.Name)
	}
	return w, nil
}

func buildSynthetic(spec SyntheticSpec, threads, chips int, size Size) *prog.Program {
	iters := spec.Iters
	if size == SizeTest {
		iters = min(iters, 512)
	}
	words := int64(spec.FootprintKB) * 1024 / prog.WordSize

	b := prog.NewBuilder("synthetic")
	declareRuntime(b, threads, chips)
	data := b.Global("data", words)
	b.Global("out", 64)

	const (
		rI   isa.Reg = 1
		rB   isa.Reg = 2 // iteration bound
		rA   isa.Reg = 3 // array cursor (bytes)
		rS   isa.Reg = 8 // step counter
		rSB  isa.Reg = 9
		rSer isa.Reg = 10
		rSeB isa.Reg = 11
	)
	const (
		fAcc  isa.Reg = 0 // carried chain value
		fK    isa.Reg = 1
		fT    isa.Reg = 2
		fIndB isa.Reg = 3 // first of the independent destinations
	)

	b.Fli(fK, 0.501)
	if spec.WarmupIters > 0 {
		// Warm-up: thread 0 runs a serial carried chain that also walks
		// the data array; everyone else parks at the barrier. Everything
		// through the barrier is variant-independent, so it is marked as
		// the shared prefix — a checkpoint taken while still inside it
		// forks into any same-prefix variant.
		b.IfThread0(func() {
			b.Li(rSer, 0)
			b.Li(rSeB, spec.WarmupIters)
			b.Fli(fT, 0.75)
			b.Li(rA, 0)
			b.Li(rT1, words*prog.WordSize)
			b.CountedLoop(rSer, rSeB, func() {
				b.Ldf(fIndB, rA, data)
				b.Addi(rA, rA, 72)
				b.Rem(rA, rA, rT1)
				b.Fmul(fT, fT, fK)
				b.Fadd(fT, fT, fK)
			})
			b.Stf(fT, isa.RegZero, b.MustAddr("out"))
		})
		b.Barrier(2)
		b.MarkPrefix()
	}
	emitChunk(b, iters, spec.ParCap)
	b.Li(rS, 0)
	b.Li(rSB, spec.Steps)
	b.CountedLoop(rS, rSB, func() {
		b.Mov(rI, rLO)
		b.Mov(rB, rHI)
		b.Fli(fAcc, 1.0)
		// Per-thread array cursor: start at (tid * 64) % footprint.
		b.Shli(rA, rTID, 6)
		b.Li(rT0, words*prog.WordSize)
		b.Rem(rA, rA, rT0)
		b.CountedLoop(rI, rB, func() {
			for m := 0; m < spec.MemOps; m++ {
				b.Ldf(fT, rA, data)
				// Stride by 72 bytes (one line + one word) so the
				// footprint is actually touched.
				b.Addi(rA, rA, 72)
				b.Li(rT0, words*prog.WordSize)
				b.Rem(rA, rA, rT0)
				if m == 0 {
					b.Fadd(fAcc, fAcc, fT) // chain through the load
				}
			}
			for c := 0; c < spec.ChainLen; c++ {
				b.Fmul(fAcc, fAcc, fK)
				b.Fadd(fAcc, fAcc, fK)
			}
			for ind := 0; ind < spec.IndepOps; ind++ {
				dst := fIndB + isa.Reg(ind%8)
				b.Fmul(dst, fK, fK)
			}
		})
		// Publish the thread's chain value (per-thread slot).
		b.Shli(rT0, rTID, 3)
		b.Li(rT1, 64*prog.WordSize)
		b.Rem(rT0, rT0, rT1)
		b.Stf(fAcc, rT0, b.MustAddr("out"))
		b.Barrier(0)
		if spec.SerialIters > 0 {
			b.IfThread0(func() {
				b.Li(rSer, 0)
				b.Li(rSeB, spec.SerialIters)
				b.Fli(fT, 0.75)
				b.CountedLoop(rSer, rSeB, func() {
					b.Fmul(fT, fT, fK)
					b.Fadd(fT, fT, fK)
				})
				b.Stf(fT, isa.RegZero, b.MustAddr("out"))
			})
			b.Barrier(1)
		}
	})
	b.Halt()

	p := b.MustBuild()
	for i := int64(0); i < words; i++ {
		p.Init[data+i*prog.WordSize] = floatBits(0.25 + 0.001*float64(i%97))
	}
	return p
}
