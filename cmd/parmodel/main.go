// Command parmodel explores the paper's §2 analytical model of
// parallelism from the command line: place an application at a
// (threads × ILP) point and see what every architecture delivers, which
// region it lands in, and the Figure 1 chart.
//
// Usage:
//
//	parmodel [-threads 5] [-ilp 1.6] [-arch SMT2]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"clustersmt"
	"clustersmt/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parmodel: ")

	threads := flag.Float64("threads", 5, "application thread-level parallelism")
	ilp := flag.Float64("ilp", 1.6, "application ILP per thread")
	archName := flag.String("arch", "SMT2", "architecture to chart")
	if exit, err := cli.New(flag.CommandLine).Parse(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	} else if exit {
		return
	}

	if *threads <= 0 || *ilp <= 0 {
		log.Fatal("threads and ilp must be positive")
	}
	app := clustersmt.ModelPoint{Threads: *threads, ILP: *ilp}

	arch, err := clustersmt.ArchByName(*archName)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(clustersmt.ModelChart(clustersmt.ModelOf(arch), map[string]clustersmt.ModelPoint{"A": app}))
	fmt.Println()

	fmt.Printf("application: %.1f threads x %.1f ILP (demand %.1f slots/cycle)\n\n",
		app.Threads, app.ILP, app.Demand())
	fmt.Printf("%-5s %10s %12s %s\n", "arch", "delivered", "utilization", "region")
	best := ""
	bestD := 0.0
	for _, a := range clustersmt.Architectures() {
		p := clustersmt.ModelOf(a)
		d := p.Delivered(app)
		fmt.Printf("%-5s %10.2f %11.0f%% %s\n", a.Name, d, 100*p.Utilization(app), p.Classify(app))
		if d > bestD {
			best, bestD = a.Name, d
		}
	}
	fmt.Printf("\nmodel prediction: %s extracts the most from this application (%.2f slots/cycle)\n", best, bestD)
}
