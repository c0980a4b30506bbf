package cli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersmt/internal/alloc"
	"clustersmt/internal/version"
	"clustersmt/internal/workloads"
)

// newFlags builds a command's shared set on a private flag set, as a
// main does on flag.CommandLine.
func newFlags(add func(*Flags)) *Flags {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := New(fs)
	add(f)
	return f
}

func TestParseSize(t *testing.T) {
	for _, def := range []workloads.Size{workloads.SizeRef, workloads.SizeTest} {
		f := newFlags(func(f *Flags) { f.AddSize(def) })
		if exit, err := f.Parse(nil, io.Discard); err != nil || exit || f.Size != def {
			t.Fatalf("default %s: size %s exit=%v err=%v", def, f.Size, exit, err)
		}
		f = newFlags(func(f *Flags) { f.AddSize(def) })
		if _, err := f.Parse([]string{"-size", "REF"}, io.Discard); err != nil || f.Size != workloads.SizeRef {
			t.Fatalf("default %s, -size REF: size %s err=%v", def, f.Size, err)
		}
		f = newFlags(func(f *Flags) { f.AddSize(def) })
		_, err := f.Parse([]string{"-size", "bogus"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Fatalf("default %s, -size bogus: err=%v, want an unknown-size error", def, err)
		}
	}
}

func TestParseAlloc(t *testing.T) {
	f := newFlags(func(f *Flags) { f.AddAlloc(false) })
	_, err := f.Parse([]string{"-alloc", "nosuch"}, io.Discard)
	if err == nil {
		t.Fatal("-alloc nosuch: no error")
	}
	for _, name := range alloc.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("-alloc nosuch error %q does not list policy %q", err, name)
		}
	}

	f = newFlags(func(f *Flags) { f.AddAlloc(false) })
	if _, err := f.Parse([]string{"-alloc", "icount", "-alloc-epoch", "500"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if f.Alloc != "icount" || f.AllocEpoch != 500 {
		t.Fatalf("parsed -alloc %q -alloc-epoch %d", f.Alloc, f.AllocEpoch)
	}

	// -list-policies exists only where a command asks for it.
	f = newFlags(func(f *Flags) { f.AddAlloc(false) })
	if _, err := f.Parse([]string{"-list-policies"}, io.Discard); err == nil {
		t.Fatal("-list-policies accepted by a command that does not offer it")
	}
	var out bytes.Buffer
	f = newFlags(func(f *Flags) { f.AddAlloc(true) })
	if exit, err := f.Parse([]string{"-list-policies"}, &out); err != nil || !exit {
		t.Fatalf("-list-policies: exit=%v err=%v", exit, err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != len(alloc.List()) {
		t.Fatalf("-list-policies printed %d lines, want %d:\n%s", lines, len(alloc.List()), out.String())
	}
}

func TestParseVersion(t *testing.T) {
	var out bytes.Buffer
	f := newFlags(func(f *Flags) { f.AddSize(workloads.SizeRef) })
	// -version wins over every other flag, even an invalid size.
	exit, err := f.Parse([]string{"-version", "-size", "bogus"}, &out)
	if err != nil || !exit {
		t.Fatalf("-version: exit=%v err=%v", exit, err)
	}
	if got, want := out.String(), version.String()+"\n"; got != want {
		t.Fatalf("-version printed %q, want %q", got, want)
	}
}

func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	f := newFlags(func(f *Flags) { f.AddProfiles() })
	if _, err := f.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written: %v", p, err)
		}
	}
}
