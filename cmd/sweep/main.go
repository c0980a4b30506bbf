// Command sweep maps the §2 (threads × ILP) plane empirically: it runs
// a grid of synthetic workloads across the architectures and prints
// which one wins at each point — the measured counterpart of the
// paper's Figure 1 regions.
//
// All grid cells route through one shared harness.Suite, so every
// (workload, physical configuration) pair simulates at most once even
// when the -archs list aliases silicon (FA8 and SMT8) or a grid row
// repeats a spec, and the whole grid runs concurrently (-parallel
// bounds the simultaneous simulations).
//
// With -warmup-iters the synthetic specs prepend a shared warm-up
// prefix and -warmup-cycles checkpoints it: the suite warms one parent
// per (machine, prefix), then forks every grid cell from it instead of
// re-simulating the warm-up 16 times per architecture (results stay
// bit-identical; see internal/core/snapshot.go).
//
// Usage:
//
//	sweep [-archs FA8,FA4,FA2,FA1,SMT2] [-size test] [-parallel N]
//	      [-warmup-iters N] [-warmup-cycles N]
//	      [-alloc icount] [-alloc-epoch N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"

	"clustersmt"
	"clustersmt/internal/cli"
	"clustersmt/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	archList := flag.String("archs", "FA8,FA4,FA2,FA1,SMT2", "comma-separated architectures to race")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max simultaneous simulations")
	warmupIters := flag.Int64("warmup-iters", 0, "prepend a shared warm-up prefix of N serial iterations to every grid cell")
	warmupCycles := flag.Int64("warmup-cycles", 0, "checkpoint the warm-up at this cycle and fork grid cells from it (0 = off)")
	shared := cli.New(flag.CommandLine)
	shared.AddSize(clustersmt.SizeTest)
	shared.AddAlloc(false)
	if exit, err := shared.Parse(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	} else if exit {
		return
	}

	var archs []clustersmt.Arch
	for _, name := range strings.Split(*archList, ",") {
		a, err := clustersmt.ArchByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		archs = append(archs, a)
	}
	suite := harness.NewSuite(shared.Size)
	suite.SetParallelism(*parallel)
	suite.WarmupCycles = *warmupCycles
	suite.AllocPolicy = shared.Alloc
	suite.AllocEpoch = shared.AllocEpoch

	// Plane axes: ParCap (threads) × ChainLen (inverse ILP).
	caps := []int{1, 2, 4, 0} // 0 = all 8 contexts
	chains := []int{0, 2, 4, 8}

	// Launch the whole grid up front; the suite's semaphore bounds the
	// real concurrency and its singleflight deduplicates any cell/arch
	// pairs that resolve to the same physical run (e.g. FA8 and SMT8
	// both in -archs).
	type point struct {
		chain, parCap int
		arch          string
	}
	cycles := make(map[point]int64)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ch := range chains {
		for _, cp := range caps {
			spec := clustersmt.SyntheticSpec{
				ParCap:      cp,
				ChainLen:    ch,
				IndepOps:    6 - min(6, ch),
				Iters:       2048,
				WarmupIters: *warmupIters,
			}
			w := clustersmt.Synthetic(spec)
			for _, a := range archs {
				wg.Add(1)
				go func(ch, cp int, a clustersmt.Arch) {
					defer wg.Done()
					res, err := suite.Run(w, a, false)
					if err != nil {
						log.Fatal(err)
					}
					mu.Lock()
					cycles[point{ch, cp, a.Name}] = res.Cycles
					mu.Unlock()
				}(ch, cp, a)
			}
		}
	}
	wg.Wait()

	// Winners resolve deterministically after the fact: fewest cycles,
	// -archs order breaking ties (the old sequential behavior).
	type cell struct{ chain, parCap int }
	winners := make(map[cell]string)
	for _, ch := range chains {
		for _, cp := range caps {
			best, bestCycles := "", int64(0)
			for _, a := range archs {
				c := cycles[point{ch, cp, a.Name}]
				if best == "" || c < bestCycles {
					best, bestCycles = a.Name, c
				}
			}
			winners[cell{ch, cp}] = best
		}
	}

	fmt.Println("winner at each (threads x ILP) point (rows: dependence chain, columns: parallel width)")
	fmt.Printf("%-18s", "")
	for _, c := range caps {
		label := fmt.Sprintf("par=%d", c)
		if c == 0 {
			label = "par=all"
		}
		fmt.Printf("%10s", label)
	}
	fmt.Println()
	for _, ch := range chains {
		label := fmt.Sprintf("chain=%d (ILP~%s)", ch, ilpLabel(ch))
		fmt.Printf("%-18s", label)
		for _, cp := range caps {
			fmt.Printf("%10s", winners[cell{ch, cp}])
		}
		fmt.Println()
	}
	fmt.Println("\n(the diagonal structure is the paper's Figure 1: narrow points go to wide")
	fmt.Println(" clusters, thready points to many clusters, and the clustered SMT covers both)")
	if *warmupCycles > 0 {
		forks, _ := suite.WarmForks()
		fmt.Printf("(warm-up sharing: %d runs forked from warmed checkpoints)\n", forks)
	}
}

func ilpLabel(chain int) string {
	switch {
	case chain == 0:
		return "high"
	case chain <= 3:
		return "mid"
	default:
		return "low"
	}
}
