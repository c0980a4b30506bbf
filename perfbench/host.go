package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and build a run was recorded on.
// Runs are compared only within one fingerprint.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s",
		f.CPUModel, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Commit)
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// appendLedger records one run, keyed by the host fingerprint.
func appendLedger(path string, fp fingerprint, name string, seed int64, seconds, trace int, rep *report) error {
	rec := struct {
		Time      string             `json:"time"`
		Host      fingerprint        `json:"host"`
		Workload  string             `json:"workload"`
		Seed      int64              `json:"seed"`
		Seconds   int                `json:"seconds"`
		Trace     int                `json:"trace"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]float64 `json:"metrics"`
	}{time.Now().UTC().Format(time.RFC3339), fp, name, seed, seconds, trace, rep.attempted, rep.failed, rep.metrics}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is a reading of the Go runtime's allocation and GC
// counters; the difference of two readings covers a timed phase.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// addRuntimeDelta reports the runtime layer over [a, b].
func addRuntimeDelta(m map[string]float64, a, b runtimeSample) {
	m["runtime.alloc_mb"] = float64(b.allocBytes-a.allocBytes) / 1e6
	m["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

// retainedHeapMB forces a collection and returns the live heap.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
