// Command clusterd is the simulation-as-a-service daemon: a long-lived
// HTTP front end over the simulator with a bounded job queue, a
// two-tier content-addressed result cache, and backpressure.
//
//	POST /v1/jobs            submit {"app","arch","high_end","size"} → 202 (429 when full)
//	GET  /v1/jobs/{id}       status/result (?wait=10s long-polls)
//	GET  /v1/figures/{4578}  paper-figure matrices (?size=, ?format=text)
//	GET  /v1/metrics/{run}   interval metrics for a simulated run (CSV/JSON)
//	GET  /v1/trace/{id}      one job's fleet-wide span timeline (Chrome trace JSON)
//	GET  /metrics            OpenMetrics scrape (latencies, queue, cache, fleet)
//	GET  /healthz            liveness + queue/cache statistics
//	GET  /debug/pprof/...    profiling endpoints (with -pprof)
//	GET  /debug/vars         expvar JSON (with -pprof)
//
// Identical submissions are content-addressed (SHA-256 of the resolved
// machine + workload spec) and served from cache in microseconds; with
// -cache-dir the cache survives restarts. Graceful shutdown (SIGINT/
// SIGTERM) stops admission, drains running jobs, and persists the
// cache index.
//
// Several daemons form a fabric: one runs with -coordinator and the
// rest join it with -join. The coordinator routes each job to the
// worker owning its content hash on a consistent-hash ring, workers
// answer each other's cache probes and ship warmed checkpoints, and a
// worker that stops heartbeating is evicted — its jobs requeue and its
// keys rebalance. Every fabric failure degrades to local simulation;
// results are bit-identical with or without the fleet.
//
// Usage:
//
//	clusterd [-addr :8421] [-size ref] [-workers N] [-queue N]
//	         [-alloc icount] [-alloc-epoch N] [-list-policies]
//	         [-cache-dir DIR] [-cache-entries N] [-max-cycles N]
//	         [-warmup-cycles N] [-metrics-interval N] [-port-file PATH]
//	         [-drain-timeout 30s] [-telemetry=false] [-span-ring N]
//	         [-node-name NAME] [-pprof]
//	         [-coordinator | -join URL [-advertise URL]]
//	         [-heartbeat 5s] [-heartbeat-timeout 15s]
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clustersmt/internal/alloc"
	"clustersmt/internal/service"
	"clustersmt/internal/version"
	"clustersmt/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clusterd: ")
	// Service-internal logging is structured (log/slog with trace IDs
	// where available); plain log calls in this file keep the prefix.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	addr := flag.String("addr", ":8421", "listen address (host:port; port 0 picks a free port)")
	sizeName := flag.String("size", "ref", "default input size for jobs and figures: test or ref")
	workers := flag.Int("workers", 0, "concurrent simulation workers (0 = GOMAXPROCS)")
	queueCap := flag.Int("queue", service.DefaultQueueCap, "job queue capacity (full queue returns 429)")
	allocPolicy := flag.String("alloc", "", "thread-to-cluster allocation policy for every simulation (default static; see -list-policies)")
	allocEpoch := flag.Int64("alloc-epoch", 0, "rebalance interval in cycles for dynamic allocation policies (0 = default)")
	listPolicies := flag.Bool("list-policies", false, "list the registered allocation policies and exit")
	cacheDir := flag.String("cache-dir", "", "persist results under this directory (survives restarts)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory result cache entries (0 = default)")
	maxCycles := flag.Int64("max-cycles", 0, "per-simulation cycle bound (0 = core default)")
	warmupCycles := flag.Int64("warmup-cycles", 0, "fork prefix-declaring workloads from a checkpoint warmed to this cycle (0 = off; persisted under -cache-dir)")
	metricsInterval := flag.Int64("metrics-interval", 0, "sample interval metrics every N cycles (0 = off)")
	metricsRing := flag.Int("metrics-ring", 0, "retained metrics frames per run (0 = default)")
	portFile := flag.String("port-file", "", "write the bound port to this file once listening")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain running jobs at shutdown")
	telemetry := flag.Bool("telemetry", true, "serve OpenMetrics at /metrics and job traces at /v1/trace/{id}")
	spanRing := flag.Int("span-ring", 0, "retained trace spans (0 = default)")
	nodeName := flag.String("node-name", "", "node identity on trace timelines (default: by fabric role)")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof and expvar at /debug/vars")
	coordinator := flag.Bool("coordinator", false, "run as the fabric coordinator: accept worker registrations and route jobs by content hash")
	joinURL := flag.String("join", "", "join the fabric coordinated at this URL (worker mode)")
	advertiseURL := flag.String("advertise", "", "base URL peers reach this worker at (default: http://127.0.0.1:<bound port>)")
	heartbeat := flag.Duration("heartbeat", service.DefaultHeartbeatInterval, "worker heartbeat interval")
	heartbeatTimeout := flag.Duration("heartbeat-timeout", 0, "evict workers whose last heartbeat is older than this (0 = 3 intervals)")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if *listPolicies {
		for _, p := range alloc.List() {
			fmt.Printf("%-10s %s\n", p.Name, p.Desc)
		}
		return
	}
	// A typoed -alloc fails at startup with the registered list, not on
	// the first job.
	if _, err := alloc.New(*allocPolicy); err != nil {
		log.Fatal(err)
	}
	if *coordinator && *joinURL != "" {
		log.Fatal("-coordinator and -join are mutually exclusive")
	}

	size := workloads.SizeRef
	switch strings.ToLower(*sizeName) {
	case "ref":
	case "test":
		size = workloads.SizeTest
	default:
		log.Fatalf("unknown size %q (want test or ref)", *sizeName)
	}

	svc, err := service.New(service.Options{
		DefaultSize:     size,
		Workers:         *workers,
		QueueCap:        *queueCap,
		CacheEntries:    *cacheEntries,
		CacheDir:        *cacheDir,
		MaxCycles:       *maxCycles,
		WarmupCycles:    *warmupCycles,
		AllocPolicy:     *allocPolicy,
		AllocEpoch:      *allocEpoch,
		MetricsInterval: *metricsInterval,
		MetricsRingCap:  *metricsRing,

		DisableTelemetry: !*telemetry,
		SpanRingCap:      *spanRing,
		NodeName:         *nodeName,

		Coordinator:       *coordinator,
		HeartbeatInterval: *heartbeat,
		HeartbeatTimeout:  *heartbeatTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	role := "single"
	if *coordinator {
		role = "coordinator"
	} else if *joinURL != "" {
		role = "worker"
	}
	log.Printf("listening on %s (default size %s, queue %d, role %s)", ln.Addr(), size, *queueCap, role)

	handler := svc.Handler()
	if *pprofFlag {
		// Debug endpoints ride an outer mux so the service API stays
		// unaware of them; gated behind the flag because profiling
		// handlers on an exposed daemon are an operational decision.
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/debug/vars", expvar.Handler())
		handler = outer
		log.Printf("pprof enabled at /debug/pprof (expvar at /debug/vars)")
	}
	httpSrv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if *joinURL != "" {
		adv := *advertiseURL
		if adv == "" {
			adv = fmt.Sprintf("http://127.0.0.1:%d", port)
		}
		if err := svc.JoinFabric(*joinURL, adv); err != nil {
			log.Fatal(err)
		}
		log.Printf("joining fabric at %s as %s", *joinURL, adv)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("shutting down: draining jobs (up to %s) and persisting cache index", *drainTimeout)
	case err := <-serveErr:
		log.Fatal(err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Close(shutdownCtx); err != nil {
		log.Printf("close: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Printf("bye")
}
