// Package cli registers and acts on the flags the clustersmt commands
// share, so each cmd/*/main.go declares only its own:
//
//   - -version (every command): print the build identity and exit;
//   - -size: the input size, parsed by workloads.ParseSize;
//   - -alloc and -alloc-epoch, with -list-policies where a command
//     offers it: the policy is validated against the alloc registry
//     before any simulation work, and the listing exits;
//   - -cpuprofile and -memprofile: started by Parse, written by Close.
//
// A command builds a Flags with New, adds the groups it takes, then
// calls Parse in place of flag.Parse.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"clustersmt/internal/alloc"
	"clustersmt/internal/version"
	"clustersmt/internal/workloads"
)

// Flags is the shared flag set of one command.
type Flags struct {
	fs *flag.FlagSet

	version      bool
	sizeName     *string
	alloc        bool // -alloc registered: validate it
	listPolicies *bool
	cpuProfile   *string
	memProfile   *string
	cpuFile      *os.File

	// Size is the parsed -size value (after Parse, with AddSize).
	Size workloads.Size
	// Alloc and AllocEpoch are the -alloc and -alloc-epoch values.
	Alloc      string
	AllocEpoch int64
}

// New registers -version on fs (flag.CommandLine for a command).
func New(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.BoolVar(&f.version, "version", false, "print build information and exit")
	return f
}

// AddSize registers -size with the given default.
func (f *Flags) AddSize(def workloads.Size) {
	f.sizeName = f.fs.String("size", def.String(), "input size: test or ref")
}

// AddAllocEpoch registers -alloc-epoch alone.
func (f *Flags) AddAllocEpoch() {
	f.fs.Int64Var(&f.AllocEpoch, "alloc-epoch", 0, "rebalance interval in cycles for dynamic allocation policies (0 = default)")
}

// AddAlloc registers -alloc and -alloc-epoch, plus -list-policies when
// list is set.
func (f *Flags) AddAlloc(list bool) {
	f.alloc = true
	usage := "thread-to-cluster allocation policy (default static)"
	if list {
		usage = "thread-to-cluster allocation policy (default static; see -list-policies)"
		f.listPolicies = f.fs.Bool("list-policies", false, "list the registered allocation policies and exit")
	}
	f.fs.StringVar(&f.Alloc, "alloc", "", usage)
	f.AddAllocEpoch()
}

// AddProfiles registers -cpuprofile and -memprofile.
func (f *Flags) AddProfiles() {
	f.cpuProfile = f.fs.String("cpuprofile", "", "write a CPU profile to this file")
	f.memProfile = f.fs.String("memprofile", "", "write a heap profile to this file at exit")
}

// Parse parses args and acts on the shared flags. -version and
// -list-policies print to out and report exit, and the command should
// then return. A bad -size or -alloc is an error, raised before any
// simulation work; the -alloc error lists every registered policy.
// With -cpuprofile the CPU profile starts here; call Close at exit.
func (f *Flags) Parse(args []string, out io.Writer) (exit bool, err error) {
	if err := f.fs.Parse(args); err != nil {
		return false, err
	}
	if f.version {
		fmt.Fprintln(out, version.String())
		return true, nil
	}
	if f.listPolicies != nil && *f.listPolicies {
		for _, p := range alloc.List() {
			fmt.Fprintf(out, "%-10s %s\n", p.Name, p.Desc)
		}
		return true, nil
	}
	if f.sizeName != nil {
		if f.Size, err = workloads.ParseSize(*f.sizeName); err != nil {
			return false, err
		}
	}
	if f.alloc {
		if _, err := alloc.New(f.Alloc); err != nil {
			return false, err
		}
	}
	if f.cpuProfile != nil && *f.cpuProfile != "" {
		if f.cpuFile, err = os.Create(*f.cpuProfile); err != nil {
			return false, err
		}
		if err := pprof.StartCPUProfile(f.cpuFile); err != nil {
			f.cpuFile.Close()
			f.cpuFile = nil
			return false, err
		}
	}
	return false, nil
}

// Close stops the CPU profile and writes the heap profile, if either
// was asked for.
func (f *Flags) Close() error {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			return err
		}
		f.cpuFile = nil
	}
	if f.memProfile == nil || *f.memProfile == "" {
		return nil
	}
	mf, err := os.Create(*f.memProfile)
	if err != nil {
		return err
	}
	runtime.GC() // settle allocations so the profile reflects live heap
	err = pprof.WriteHeapProfile(mf)
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	return err
}
