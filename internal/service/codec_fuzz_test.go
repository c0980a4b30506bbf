package service

import (
	"testing"

	"clustersmt/internal/workloads"
)

// FuzzJobSpecResolve checks the job-spec boundary POST /v1/jobs
// decodes into: no spec panics Resolve, and for any spec that
// resolves, the normalized spec resolves again — under either server
// default size, since normalization spells the size out — to the same
// normalized spec and the same content-addressed Hash. Seeds are the
// canonical and rejected synth(...) names of TestParseSynthetic, the
// out-of-range reproducers of TestSyntheticValidate, and paper
// applications under the architecture aliases and size spellings.
func FuzzJobSpecResolve(f *testing.F) {
	for _, app := range []string{
		"swim", "ocean", "radix", "",
		"synth(p0,c0,i0,m1,f16,n4096,s0,t2)",
		"synth(p2,c4,i1,m3,f64,n1024,s32,t3)",
		"synth(p0,c2,i2,m1,f16,n256,s0,t2,w1500)",
		"synth(p0,c0,i0,m1,f16,n4096,s0,t2,w0)",
		"synth(p0,c0,i0,m0,f16,n4096,s0,t2)",
		"synth(p1,c1,i1,m1,f1073741824,n1,s1,t1)",
		"synth(p-5,c-1,i1,m1,f16,n1,s1,t1)",
	} {
		f.Add(app, "SMT2", false, "", false)
	}
	f.Add("swim", "FA8", true, "ref", true)
	f.Add("swim", "SMT8", false, "TEST", false)
	f.Add("fmm", "smt2", true, "bogus", true)
	f.Fuzz(func(t *testing.T, app, arch string, highEnd bool, size string, refDefault bool) {
		def := workloads.SizeTest
		if refDefault {
			def = workloads.SizeRef
		}
		r, err := JobSpec{App: app, Arch: arch, HighEnd: highEnd, Size: size}.Resolve(def)
		if err != nil {
			return
		}
		want := r.Hash()
		for _, d := range []workloads.Size{workloads.SizeTest, workloads.SizeRef} {
			again, err := r.Spec.Resolve(d)
			if err != nil {
				t.Fatalf("normalized spec %+v no longer resolves: %v", r.Spec, err)
			}
			if again.Spec != r.Spec {
				t.Fatalf("normalization is not idempotent: %+v -> %+v", r.Spec, again.Spec)
			}
			if again.Hash() != want {
				t.Fatalf("normalized spec %+v hashes %x, original %x", r.Spec, again.Hash(), want)
			}
		}
	})
}
