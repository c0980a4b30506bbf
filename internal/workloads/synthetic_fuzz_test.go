package workloads

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseSynthetic checks the synth(...) name boundary the service
// exposes: any name ParseSynthetic accepts carries a spec that passes
// Validate, renders back to exactly that name, and re-parses to the
// same workload (name, thread cap, description and built program).
// Seeds are TestParseSynthetic's canonical and rejected names plus the
// out-of-range reproducers of TestSyntheticValidate.
func FuzzParseSynthetic(f *testing.F) {
	for _, spec := range []SyntheticSpec{
		{},
		{ParCap: 2, ChainLen: 4, IndepOps: 1, MemOps: 3, FootprintKB: 64, Iters: 1024, SerialIters: 32, Steps: 3},
		{ChainLen: 2, IndepOps: 2, Iters: 256, WarmupIters: 1500},
	} {
		f.Add(Synthetic(spec).Name)
	}
	for _, name := range []string{
		"",
		"swim",
		"synth()",
		"synth(p0,c0,i0)",
		"synth(p0,c0,i0,m1,f16,n4096,s0,t2,w0)",
		"synth(p0,c0,i0,m0,f16,n4096,s0,t2)",
		"synth(p0,c0,i0,m1,f16,n4096,s0,t2,x5)",
		"synth(p0,c0,i0,m1,f16,n4096,s0,t2,w1,w2)",
		"synth(p0,c0,i0,m1,f16,nABC,s0,t2)",
		"synth(p1,c1,i1,m1,f1073741824,n1,s1,t1)",
		"synth(p-5,c-1,i1,m1,f16,n1,s1,t1)",
		"synth(p0,c0,i0,m1,f16,n4096,s0,t2,w2000000)",
	} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		w, err := ParseSynthetic(name)
		if err != nil {
			return
		}
		if w.Name != name {
			t.Fatalf("ParseSynthetic(%q) returned workload %q", name, w.Name)
		}
		spec, ok := specFromName(name)
		if !ok {
			t.Fatalf("ParseSynthetic accepted %q, which is not 8 or 9 integer fields", name)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSynthetic accepted %q: %v", name, err)
		}
		if got := Synthetic(spec).Name; got != name {
			t.Fatalf("accepted %q renders as %q", name, got)
		}
		again, err := ParseSynthetic(w.Name)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", w.Name, err)
		}
		if again.Name != w.Name || again.ParCap != w.ParCap || again.Description != w.Description {
			t.Fatalf("re-parse of %q differs: %+v vs %+v", name, again, w)
		}
		if w.Build(8, 1, SizeTest).Fingerprint() != again.Build(8, 1, SizeTest).Fingerprint() {
			t.Fatalf("re-parse of %q builds a different program", name)
		}
	})
}

// specFromName reads a synth(...) name's fields positionally, trusting
// each field's one-letter key; it is deliberately independent of
// ParseSynthetic's grammar checks.
func specFromName(name string) (SyntheticSpec, bool) {
	body := strings.TrimSuffix(strings.TrimPrefix(name, "synth("), ")")
	fields := strings.Split(body, ",")
	if len(fields) != 8 && len(fields) != 9 {
		return SyntheticSpec{}, false
	}
	var v [9]int64
	for i, f := range fields {
		if f == "" {
			return SyntheticSpec{}, false
		}
		n, err := strconv.ParseInt(f[1:], 10, 64)
		if err != nil {
			return SyntheticSpec{}, false
		}
		v[i] = n
	}
	return SyntheticSpec{
		ParCap: int(v[0]), ChainLen: int(v[1]), IndepOps: int(v[2]),
		MemOps: int(v[3]), FootprintKB: int(v[4]), Iters: v[5],
		SerialIters: v[6], Steps: v[7], WarmupIters: v[8],
	}, true
}
