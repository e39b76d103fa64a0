GO ?= go

.PHONY: build test vet race shuffle cover reach smoke chaossmoke syncsmoke fidelitysmoke clustersmoke fuzz vuln fieldalign check benchcheck fig8 fmt

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

# cover is the coverage ledger: the whole suite with every package
# instrumented, its total statement coverage, and a gate on the functions no
# test reaches. A function at 0.0% outside cmd/*/main.go fails the gate
# unless testdata/zero_coverage.txt lists it ("<file> <func>" lines, sorted
# bytewise); a listed function that a test now reaches is named, so its line
# can be dropped and the list only shrinks. Subprocess tests (the real
# binaries) count for nothing here. Profile and tables land in artifacts/.
cover:
	@mkdir -p artifacts
	$(GO) test -count=1 -coverpkg=./... -coverprofile=artifacts/cover.out ./...
	@$(GO) tool cover -func=artifacts/cover.out > artifacts/cover.txt
	@grep '^total:' artifacts/cover.txt
	@awk '$$NF == "0.0%" && $$1 !~ /\/cmd\/[^\/]+\/main\.go:/ { sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' \
		artifacts/cover.txt | LC_ALL=C sort > artifacts/zero_coverage.txt
	@LC_ALL=C comm -13 artifacts/zero_coverage.txt testdata/zero_coverage.txt | sed 's/^/cover: now covered, drop from testdata\/zero_coverage.txt: /'
	@LC_ALL=C comm -23 artifacts/zero_coverage.txt testdata/zero_coverage.txt | sed 's/^/cover: at 0% and not in testdata\/zero_coverage.txt: /' > artifacts/cover-gate.txt
	@cat artifacts/cover-gate.txt; test ! -s artifacts/cover-gate.txt

# reach is the reachability ledger: the four binaries and bench/ are linked
# with inlining off and the linker's dependency dump on, and every function
# the root module's non-test files declare (read from the compiled packages:
# generic instantiations folded onto their declaration, closures, wrappers and
# init left out) that no link reaches lands in artifacts/unreached.txt as a
# "<file> <func>" line. One that testdata/unreached.txt does not list fails
# the gate; a listed one a link now reaches is named, so the list only
# shrinks. The list holds what stays on purpose: the sac facade (and
# fault.Generate, which only its GenerateFaultPlan reaches) and the client
# API that no binary calls, invariant checkers, the oracles tests compare
# against, and the accessors and job-table calls tests drive.
reach:
	@mkdir -p artifacts/reach
	@set -e; for d in cmd/sacsim cmd/sacsweep cmd/sacd cmd/saccoord bench; do \
		dep=artifacts/reach/$${d##*/}.dep; \
		$(GO) build -C $$d -gcflags=all=-l -ldflags=-dumpdep -o $(CURDIR)/artifacts/reach/ . 2> $$dep || { cat $$dep; exit 1; }; \
		sed "s|^main\.|repro/$$d.|; s| -> main\.| -> repro/$$d.|" $$dep; \
	done > artifacts/reach/deps.txt
	@for f in $$($(GO) list -export -gcflags=all=-l -f '{{.Export}}' ./...); do $(GO) tool objdump "$$f" | grep '^TEXT '; done \
		> artifacts/reach/text.txt
	@awk -v root="$$($(GO) list -m -f '{{.Dir}}')/" ' \
		function fold(s) { while (gsub(/\[[^][]*\]/, "", s)) {} return s } \
		FNR == NR { n = split($$0, e, " -> "); for (i = 1; i <= n; i++) reached[fold(e[i])] = 1; next } \
		{ i = index($$0, "(SB) "); name = fold(substr($$0, 6, i - 6)); file = substr($$0, i + 5) } \
		index(file, root) != 1 || name ~ /\.func[0-9]|\.(defer|go)wrap[0-9]|-fm$$|-range[0-9]|(^|\.)init(\.[0-9]+)?$$/ { next } \
		{ file = "repro/" substr(file, length(root) + 1); pkg = file; sub(/\/[^\/]*$$/, "", pkg); \
		  if (name ~ /^main\./) name = pkg substr(name, 5); \
		  if (!(name in reached)) print file, substr(name, length(pkg) + 2) }' \
		artifacts/reach/deps.txt artifacts/reach/text.txt | LC_ALL=C sort -u > artifacts/unreached.txt
	@LC_ALL=C comm -13 artifacts/unreached.txt testdata/unreached.txt | sed 's/^/reach: now reached, drop from testdata\/unreached.txt: /'
	@LC_ALL=C comm -23 artifacts/unreached.txt testdata/unreached.txt | sed 's/^/reach: unreached and not in testdata\/unreached.txt: /' > artifacts/reach-gate.txt
	@cat artifacts/reach-gate.txt; test ! -s artifacts/reach-gate.txt

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
# durable-before-visible ordering of terminal states, restored jobs keeping
# their accept order across a runtime compaction, and the real SIGKILL of a
# sacd process with fsync on. The second line replays a journal in the older
# format (start records) and compacts one in accept order; the third holds a
# flight's landing before its leader is seen done, a cancel racing a
# worker's start to either stopping the start or canceling the execution,
# and a canceled or expired joiner to detaching while its leader runs on.
chaossmoke: syncsmoke
	$(GO) test -race -count=1 \
		-run 'TestCrashRecovery|TestDrainJournalExactlyOnce|TestChaosSoak|TestWorkerPanicContained|TestJournalFailureUnhealthyAndHeals|TestDeadline|TestDegradedStillAdmits|TestCorruptJournal|TestTerminalDurableBeforeVisible|TestCompactionKeepsAcceptOrder' \
		./internal/server
	$(GO) test -race -count=1 -run 'TestReplayLiveSet|TestRuntimeCompaction' ./internal/journal
	$(GO) test -race -count=1 -run 'TestFlightLandsBeforeDone|TestCancelNeverLeavesExecuteRunning|TestJoinerDetaches' ./internal/jobs

# syncsmoke SIGKILLs a real sacd with REPRO_JOURNAL_SYNC=1, the fsync path
# the default (page-cache) journal mode never takes.
syncsmoke:
	REPRO_JOURNAL_SYNC=1 $(GO) test -race -count=1 -run 'TestCrashRecoveryE2E' ./cmd/sacd

# fidelitysmoke is the fidelity-ladder shortcut: the estimate rung must
# reproduce the cycle-exact per-kernel SAC org decisions on all 16 Table-4
# workloads, exact runs must stay unlabelled (byte-identical to pre-ladder
# output), and the 16-workload estimate sweep must finish in well under a
# second. The second
# line pins the estimate rung's bytes (the 256-cell universe, in order and
# shuffled across goroutines through the pooled scratch, and the page-bound
# straddle), memory-side and SM-side estimates that θ does not move, its
# held-out decisions (the 64 SAC cells of that universe against
# exact, counting only disagreements whose exact margin exceeds θ), its
# allocations, a CRD that is cold after Reset, the replay-invariant config
# fields, that a canceled replay is never handed on to a run-set mate, and
# the rung's declared coverage against what synthesize fills; and the exact
# rung's memory-side twin: a SAC run that never left memory-side equals the
# memory-side run byte for byte, a run whose window end cut a fast-forward
# short or that switched offers none, and a run-set hands a twin only to its
# memory-side cell; and the exact rung's pooled machines: re-armed machines
# answer fresh ones' bytes across organizations, protocols, benchmarks and
# two goroutines, perturbing any armed config field between runs on one
# machine does too, the shape key zeroes exactly the armed fields, only a
# plain clean run hands its machine back, and a re-armed run allocates only
# its answer, also after two collections on a fresh goroutine (the shape
# pool keeps what it is given, up to its peak). The third holds a sacd batch
# and a sweep's RunAll to the same bytes with one replay per (machine, spec),
# a sweep's RunAll to lone runs' bytes with its twinned memory-side cells not
# simulated (exact_sweep's 21 cells: 18 simulations), and the experiments
# outside the rung's coverage
# to a refusal before any cell runs. The fourth pins sacsweep's -json bytes: every
# experiment the estimate rung covers over the fast set (the six it does not
# are one skip line each), and an exact Fig 8 cold and warm from a result
# cache. On a 2-vCPU host the target takes about 36 s wall with a warm build
# cache, the internal/gpu tests about 12 s of it.
fidelitysmoke:
	$(GO) test -count=1 \
		-run 'TestCrossFidelityDecisions|TestEstimateLatency|TestFidelityRoundTrip' .
	$(GO) test -count=1 \
		-run 'TestEstimateUniverseGolden|TestEstimateStraddleGolden|TestEstimateFixedOrgsIgnoreTheta|TestEstimateHeldOutDecisions|TestEstimateSteadyStateAllocs|TestNewStreamAllocations|TestAppendStreamsMatchesNewStream|TestCRDResetIsCold|TestProfileInvariantFields|TestRunSetCancelNotShared|TestEstimateCoverage|TestCovers|TestMemorySideTwinLaw|TestMemorySideTwinWithheld|TestRunSetSharesTwins|TestRearmDifferential|TestArmInvariantFields|TestHandBackRule|TestExactSteadyStateAllocs|TestPooledMachineOutlivesGC|TestShapePoolsKeepPeak' \
		./internal/backend ./internal/workload ./internal/core ./internal/gpu
	$(GO) test -count=1 -run 'TestBatchSharesProfiles|TestRunAllSharesEstimateProfiles|TestRunAllSharesTwins|TestEstimateRefusesUncovered' \
		./internal/server ./internal/eval
	$(GO) test -count=1 -run TestSweepGolden ./cmd/sacsweep

# clustersmoke is the fleet shortcut: ring properties (balance, minimal key
# movement), an in-process coordinator + two workers (a worker kill loses no
# cell; a remote RunAll is byte-identical to in-process runs), the dispatch
# lanes (grouped submits, each group watching its own jobs, per-item answers
# for a group refused whole), and the real-binary fleet e2e (saccoord + 2 sacd +
# sacsweep -remote byte-identity, SIGKILL steal, fleet-wide exactly-once).
clustersmoke:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -count=1 -run TestFleetEndToEnd ./cmd/saccoord

# fuzz is a short smoke of the untrusted-input decoders (the store's record
# reader and its segment scan, the fault-plan DSL, the jobs HTTP surface sacd
# and saccoord share, the journal's replay, and the coordinator's worker
# register/heartbeat bodies), plus the hand-written
# jobs wire codec against encoding/json: the status encoder, the request
# decoder both daemons run and the client's status decoder, and the
# profiler's Reset against a fresh profiler (the estimate rung pools one
# across calls). An exec-count budget keeps the wall time stable on
# single-core CI runners; long campaigns run the same targets with a time
# budget instead.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStoreObject -fuzztime 20000x ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzPackScan -fuzztime 20000x ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzFaultPlan -fuzztime 20000x .
	$(GO) test -run '^$$' -fuzz FuzzJobsHTTP -fuzztime 20000x ./internal/jobs
	$(GO) test -run '^$$' -fuzz FuzzStatusEncoding -fuzztime 20000x ./internal/jobs
	$(GO) test -run '^$$' -fuzz FuzzRequestDecode -fuzztime 20000x ./internal/jobs
	$(GO) test -run '^$$' -fuzz FuzzStatusDecode -fuzztime 20000x ./client
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 20000x ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzWorkersHTTP -fuzztime 20000x ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzProfilerReset -fuzztime 20000x ./internal/core

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
# rung's by-value replay records: workload.Stream and its walkers and core's
# crdBlock. workload.Spec is left in its order, which the
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
# race cannot reach, a fuzz smoke of the decoders, the coverage and
# reachability ledgers, the nested benchmark module's own vet + tests (a smoke-size run of all four
# workloads), and the advisory layout and vulnerability scans.
check: vet race shuffle syncsmoke fuzz cover reach benchcheck fieldalign vuln

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
