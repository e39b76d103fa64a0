GO ?= go

.PHONY: build test vet race shuffle smoke chaossmoke syncsmoke fidelitysmoke clustersmoke fuzz vuln fieldalign check benchcheck fig8 fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race run doubles as the job-engine exercise: the eval, server and
# cluster tests drive internal/jobs' flight table from many goroutines. It
# is also every contract gate at once: no test is -short- or tag-gated, so
# this runs everything the smoke, chaossmoke, fidelitysmoke and clustersmoke
# shortcuts below name. What it cannot reach is a configuration an environment variable
# selects; syncsmoke covers the one there is.
race:
	$(GO) test -race ./...

# shuffle reruns the suite with randomized test execution order, catching
# tests that silently depend on a sibling running first.
shuffle:
	$(GO) test -shuffle=on ./...

# smoke is the daemon shortcut: build the real sacd binary, start it on an
# ephemeral port, drive it over HTTP (concurrent dedup, byte-identity with
# in-process sac.Run, SIGTERM drain, restart from the journal and the
# persistent store), and require a clean exit.
smoke:
	$(GO) test -count=1 -run TestDaemonEndToEnd ./cmd/sacd

# chaossmoke is the crash-safety shortcut, run under the race detector: the
# in-process kill -9 simulation (zero accepted jobs lost, zero duplicate
# executions), the journaled drain/restart exactly-once cycle, the chaos
# soak (worker panics + dropped fsyncs + tight deadlines), the
# durable-before-visible ordering of terminal states, and the real SIGKILL
# of a sacd process with fsync on.
chaossmoke: syncsmoke
	$(GO) test -race -count=1 \
		-run 'TestCrashRecovery|TestDrainJournalExactlyOnce|TestChaosSoak|TestWorkerPanicContained|TestJournalFailureUnhealthyAndHeals|TestDeadline|TestDegradedShedsBatchLane|TestCorruptJournal|TestTerminalDurableBeforeVisible' \
		./internal/server

# syncsmoke SIGKILLs a real sacd with REPRO_JOURNAL_SYNC=1, the fsync path
# the default (page-cache) journal mode never takes.
syncsmoke:
	REPRO_JOURNAL_SYNC=1 $(GO) test -race -count=1 -run 'TestCrashRecoveryE2E' ./cmd/sacd

# fidelitysmoke is the fidelity-ladder shortcut: the estimate and sampled rungs
# must reproduce the cycle-exact SAC org decision on all 16 Table-4
# workloads, the sampled rung must stay byte-identical run to run, exact runs
# must stay unlabelled (byte-identical to pre-ladder output), and the
# 16-workload estimate sweep must finish in well under a second. The second
# line pins the estimate rung's bytes (the 256-cell universe, in order and
# shuffled across goroutines through the pooled scratch, and the page-bound
# straddle) and its allocations. The third pins sacsweep's -json bytes: every
# experiment of the fast set at the estimate rung, and an exact Fig 8 cold and
# warm from a result cache.
fidelitysmoke:
	$(GO) test -count=1 \
		-run 'TestCrossFidelityDecisions|TestSampledDeterminism|TestEstimateLatency|TestFidelityRoundTrip' .
	$(GO) test -count=1 \
		-run 'TestEstimateUniverseGolden|TestEstimateStraddleGolden|TestEstimateSteadyStateAllocs|TestNewStreamAllocations|TestAppendStreamsMatchesNewStream|TestCRDResetKeepsVictimStamps' \
		./internal/backend ./internal/workload ./internal/core
	$(GO) test -count=1 -run TestSweepGolden ./cmd/sacsweep

# clustersmoke is the fleet shortcut: the ring property tests (placement balance
# within bound, minimal key movement on join/leave), the in-process
# coordinator + two real workers with one induced worker kill (zero lost
# cells), and the real-binary fleet e2e (saccoord + 2 sacd + sacsweep
# -remote byte-identity, SIGKILL steal, fleet-wide exactly-once).
clustersmoke:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -count=1 -run TestFleetEndToEnd ./cmd/saccoord

# fuzz is a short smoke of the untrusted-input decoders (the trace reader,
# the store's object reader, the jobs HTTP surface sacd and saccoord share,
# the journal's replay, and the coordinator's worker register/heartbeat
# bodies), plus the jobs status encoder against encoding/json. An exec-count
# budget keeps the wall time stable on single-core CI runners; long campaigns
# run the same targets with a time budget instead.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTraceRead -fuzztime 20000x ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzStoreObject -fuzztime 20000x ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzJobsHTTP -fuzztime 20000x ./internal/jobs
	$(GO) test -run '^$$' -fuzz FuzzStatusEncoding -fuzztime 20000x ./internal/jobs
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 20000x ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzWorkersHTTP -fuzztime 20000x ./internal/cluster

# vuln scans dependencies with govulncheck when it is installed; the gate is
# advisory so offline checkouts (no way to install the tool) still pass.
# The report lands in artifacts/govulncheck.txt either way, so CI can always
# archive it.
vuln:
	@mkdir -p artifacts
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... | tee artifacts/govulncheck.txt; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)" \
			| tee artifacts/govulncheck.txt; \
	fi

# fieldalign runs the fieldalignment analyzer over the hot packages — the
# cache array every L1 and LLC slice runs on, the cycle loop, the SM record
# whose scheduler words it reads every step, and the by-value records the
# loop walks every cycle: DRAM channels, crossbar ports,
# ring links and the bwsim primitives embedded in them (a padded layout there
# silently regresses the cache behaviour the layout bought), plus the
# per-memop records: memsys.Request and the addr page index; and the estimate
# rung's by-value replay records: workload.Stream and its walkers, core's
# crdBlock, backend's tagEntry. workload.Spec is left in its order, which the
# analyzer reports: its field order is the key order of every -json result
# (as gpu.Config's is of every store key). Advisory like vuln: offline
# checkouts without the tool still pass.
fieldalign:
	@if command -v fieldalignment >/dev/null 2>&1; then \
		fieldalignment ./internal/cache ./internal/gpu ./internal/sm ./internal/xchip ./internal/dram ./internal/noc ./internal/bwsim ./internal/memsys ./internal/addr ./internal/workload ./internal/core ./internal/backend; \
	else \
		echo "fieldalignment not installed; skipping (go install golang.org/x/tools/go/analysis/passes/fieldalignment/cmd/fieldalignment@latest)"; \
	fi

# check is the CI gate: static analysis, the full suite under the race
# detector (every daemon, crash-recovery, fidelity and fleet contract — once)
# and again in shuffled order, the one environment-selected configuration
# race cannot reach, a fuzz smoke of the decoders, the nested benchmark
# module's own vet + tests (a smoke-size run of all four workloads), and the
# advisory layout and vulnerability scans.
check: vet race shuffle syncsmoke fuzz benchcheck fieldalign vuln

# benchcheck builds and tests bench/, a module of its own that compiles
# against internal/store, internal/server, internal/cluster and client but
# that `go test ./...` at the root never sees: a signature it calls cannot
# change without failing here (< 10 s).
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

fig8:
	$(GO) run ./cmd/sacsweep -exp fig8

fmt:
	gofmt -l -w .
