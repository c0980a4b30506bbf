// Command perfbench is the repository's benchmark: four workloads that
// drive the simulator and the serving stack through their public APIs,
// check every output, and report end-to-end metrics (untraced run) or
// per-layer metrics (traced run).
//
// Run it from the repository root through the wrapper, which builds
// this module into .bench_build/:
//
//	python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0
//	python3 perfbench/run.py --workload all --seed 1 --seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every run also appends a
// host-fingerprinted record to .bench_build/perfbench/ledger.jsonl;
// runs compare only within one fingerprint.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// workload is one benchmark workload; BENCHMARK.json records why each
// was chosen. run executes it once, untraced (e.tr == nil) or traced,
// and returns its report.
type workload struct {
	name string
	run  func(e *env) (*report, error)
}

var workloadList = []workload{
	{"figures", runFigures},
	{"alloc", runAlloc},
	{"serve", runServe},
	{"sweep", runSweep},
}

// env is what a workload run gets: its seed-derived randomness, its
// time budget, where the repository is and where scratch output goes.
type env struct {
	rng     *rand.Rand
	seconds time.Duration
	root    string // repository root (paperfigs_output.txt lives here)
	golden  *goldenSet
	outDir  string // scratch output inside the build directory
	tr      *tracer
}

// report is one workload run's outcome.
type report struct {
	attempted int
	mu        sync.Mutex // guards failed and problems: fail runs on load-generator goroutines
	failed    int
	problems  []string           // first few correctness failures, for stderr
	metrics   map[string]float64 // end-to-end (untraced) or per-layer (traced)
	extra     map[string]float64 // printed, not in the result line
	notes     []string           // human-readable detail lines
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, extra: map[string]float64{}}
}

// fail records one failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: figures, alloc, serve, sweep or all")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 20, "measurement budget per run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = untraced end-to-end run")
	root := flag.String("root", ".", "repository root")
	updateGolden := flag.Bool("update-golden", false, "rewrite the golden result digests instead of checking them")
	flag.Parse()
	// The in-process servers log membership changes at info level.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	if err := run(*name, *seed, *seconds, *trace, *root, *updateGolden); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, root string, updateGolden bool) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("%s is not the repository root: %w", root, err)
	}
	outDir := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	golden, err := loadGolden(filepath.Join(root, "perfbench"), updateGolden)
	if err != nil {
		return err
	}
	cat, err := loadCatalog(root)
	if err != nil {
		return err
	}

	var selected []workload
	for _, w := range workloadList {
		if name == "all" || w.name == name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown --workload %q (want figures, alloc, serve, sweep or all)", name)
	}
	fp := hostFingerprint()
	fmt.Printf("host: %s\n", fp)

	traces := []int{trace}
	if name == "all" {
		traces = []int{0, 1}
	}
	total := newReport()
	correct := true
	for _, w := range selected {
		for _, t := range traces {
			e := &env{rng: rand.New(rand.NewSource(seed)), seconds: time.Duration(seconds) * time.Second,
				root: root, golden: golden, outDir: outDir}
			if t == 1 {
				e.tr = newTracer(w.name)
			}
			start := time.Now()
			rep, err := w.run(e)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if t == 1 {
				path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
				if err := e.tr.finish(rep, path); err != nil {
					return fmt.Errorf("%s: trace: %w", w.name, err)
				}
				rep.notes = append(rep.notes, "chrome trace: "+path)
			}
			cat.fill(rep, t)
			printReport(cat, w.name, t, rep, time.Since(start))
			if err := appendLedger(filepath.Join(outDir, "ledger.jsonl"), fp, w.name, seed, seconds, t, rep); err != nil {
				return err
			}
			if rep.failed > 0 {
				correct = false
			}
			total.attempted += rep.attempted
			total.failed += rep.failed
			for k, v := range rep.metrics {
				if name == "all" {
					k = w.name + "/" + k
				}
				total.metrics[k] = v
			}
		}
	}
	if err := printResult(cat, correct, total); err != nil {
		return err
	}
	if updateGolden {
		return golden.save()
	}
	if !correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

// fill makes the result line carry exactly the catalog's metrics for
// the run kind; a per-layer metric of a bypassed layer is 0.
func (c *catalog) fill(rep *report, trace int) {
	list := c.EndToEnd
	if trace == 1 {
		list = c.PerLayer
	}
	out := make(map[string]float64, len(list))
	for _, m := range list {
		out[m.Name] = rep.metrics[m.Name]
	}
	for k, v := range rep.metrics {
		if _, ok := out[k]; !ok {
			rep.extra[k] = v
		}
	}
	rep.metrics = out
}

func printReport(cat *catalog, name string, trace int, rep *report, d time.Duration) {
	kind := "end-to-end"
	if trace == 1 {
		kind = "per-layer"
	}
	fmt.Printf("== %s (%s, %.1f s)\n", name, kind, d.Seconds())
	for _, n := range rep.notes {
		fmt.Printf("   %s\n", n)
	}
	printMetrics(cat, rep.metrics)
	if len(rep.extra) > 0 {
		printMetrics(cat, rep.extra)
	}
	share := 0.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("   %-30s %14.6g %s  (%d of %d)\n", "failed_share", share, "share", rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, p)
	}
}

func printMetrics(cat *catalog, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   %-30s %14.6g %s\n", k, m[k], cat.unitOf(k))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the machine-readable last line.
func printResult(cat *catalog, correct bool, rep *report) error {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, rep.attempted, rep.failed, map[string]metricValue{}}
	for k, v := range rep.metrics {
		out.Metrics[k] = metricValue{v, cat.unitOf(lastSegment(k))}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// lastSegment strips the "workload/" prefix an all-workload run adds.
func lastSegment(k string) string {
	for i := len(k) - 1; i >= 0; i-- {
		if k[i] == '/' {
			return k[i+1:]
		}
	}
	return k
}
