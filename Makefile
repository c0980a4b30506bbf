# Tier-1 gate: everything CI requires green.
check: diff race
	go build ./...
	go vet ./...
	go test ./...

# Differential matrix only: scan × wakeup issue crossed with stepped ×
# fast-forward cycle loops, plus reference × fast memory paths, plus
# observability on × off, plus run-from-checkpoint × run-from-scratch
# (and the golden on-disk snapshot fixture and the pinned snapshot
# bytes), plus service telemetry on × off, plus allocation
# policy static × none (and dynamic-policy determinism under every
# loop), must agree bit-for-bit on the full Result (reflect.DeepEqual)
# across every preset; and the steady-state cycle loop must allocate
# nothing (the window-entry pool). Fast feedback when touching the issue
# stage, the entry pool, the quiescence skip, the memory hierarchy, the
# metrics/tracing hooks, the snapshot codec, or the alloc subsystem.
diff:
	go test ./internal/core -run 'TestEventDriven|TestWakeup|TestSteadyStateAllocFree|TestStoreForwardingMap|TestMemPath|TestObs|TestMetricsRingDrops|TestCheckpointDifferential|TestSnapshotGolden|TestSnapshotBytesPinned|TestAlloc'
	go test ./internal/service -run TestTelemetryDifferential

# Race-check the concurrent layers: core cancellation (interrupts during
# fast-forward), COW snapshot forking (children racing each other and
# the continuing parent), harness
# (suite cache + singleflight + warm-up sharing + cancellation),
# service (queue, two-tier cache, backpressure, snapshot persistence,
# e2e HTTP, cross-node tracing) and telemetry (concurrent scrapes
# against concurrent observers, span-ring races).
race:
	go test -race ./internal/core -run 'TestInterrupt|TestSnapshotRoundTripRace'
	go test -race ./internal/harness/... ./internal/service/... ./internal/telemetry/...

# Regenerate BENCH_core.json (fast-forward, wakeup, memory-path,
# observability, checkpoint-forking and fabric scale-out measurements).
bench:
	WRITE_BENCH=1 go test -run TestWriteBenchCoreJSON -v .

.PHONY: check diff race bench
