# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet lint race allocs metrics-golden fault fuzz mutants check bench load-smoke chaos cluster-smoke experiments cover clean fmt ci

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

# Static analysis beyond vet. staticcheck is not vendored (no new module
# dependencies); the target uses an installed binary when present and
# otherwise runs it via `go run` (network download), which is what the CI
# lint job does.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		go run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...; \
	fi

# Tier-1 verification; `make race` is the concurrency-hardened variant of
# the same suite (vet + race-enabled tests) and should be run alongside it
# whenever the serving path changes. The `./...` pattern covers every
# package, including internal/automata (compiler singleflight hammer) and
# internal/automata/cache (LRU hammer) — the tests that only prove
# anything under -race. internal/mediator, internal/serve, internal/engine
# and internal/cluster run again at -count=3 -cpu=1,2: the part slots, the
# query-plan memo, the handlers above them and the forward transports (hedged
# owner fetches, one build flight per view) are scheduling-sensitive, and the
# repeat keeps every test of the four independent of what ran before it
# (process-wide caches, shared fixtures).
# internal/xmlmodel rides along: its trees are arrays shared between
# elements, and the ownership tests (slab_test.go) are what says the sharing
# stops there. internal/infer too: a kept plan is its analysis run once, and
# under it a condition that matches several names is refined on the calling
# goroutine at -cpu=1 and fanned out to goroutines at -cpu=2 (one that
# matches a single name is refined on the calling goroutine at both).
# internal/load last: its one open-loop dispatcher
# is shared by all three campaigns, and whether a slot is free at an
# operation's turn — sent or shed — is decided by the scheduler. internal/obs
# because a request's trace is one record that every part goroutine of the
# request writes, and that /debug/trace reads while they do. internal/oracle
# because its subjects fetch from an origin served on other goroutines, and
# its hop subjects' owner and forwarder talk across an in-memory transport
# whose owner revokes leases on goroutines of its own, and because the
# untagged, stacked and guarded subjects are read by concurrent readers,
# some cancelled mid-read, after every invalidation. The last line
# repeats the tests of the answer memo — one type on both sides of the cluster
# hop, shared by readers while documents, leases and renders race — of the
# splice, which makes a member's memos with its runs and hands them on to the
# record that replaces it, of the lease renewals a revocation carries, one of
# which splices into a record while a forwarded fetch of it is in flight
# (TestRenewalRacesAForwardedFetch), of the revocation stream each owner holds
# to each holder — frames written under its lock, acknowledgements credited by
# its reader, a stream failed by a deadline while a write or a read is under
# way (-run Revocation|Stream) — and internal/oracle's check across the hop
# (TestOracleAcrossTheHop, ≈ 5 s a pass), twenty times. It skips the five
# others that check against internal/oracle's naive mediator: the line above
# runs them at -count=3 -cpu=1,2 already, and here they were ≈ 38 s of each
# pass's 45 s on 2 cores, 1 121 s at -count=20, over go test's 10-minute
# default; -timeout gives the rest room. The line before it repeats, fifty times, every test of the one
# "compute once, the rest wait" rule (cache.Flight) and of its three holders:
# the flight's own table, the LRU under the automata compiler and the memos,
# the part slots, and the forward builds — ≈ 20 s on 2 cores — and the
# refinement fan-out, whose workers write one slab of specializations at
# distinct indices (internal/infer, ≈ 9 s more). It repeats the two pool
# tests too: internal/engine and internal/xmlmodel keep the scratch of an
# evaluation and of a tree scan in a sync.Pool for whichever goroutine runs
# the next one, and what they hand out must share nothing with it — picks,
# cuts and trees that stay as they were while other goroutines evaluate and
# scan on the same scratch (≈ 8 s more for each package on 2 cores). It
# repeats the read's own fan-out too — one part on the reading goroutine,
# several on goroutines of their own, a panicking wrapper failing the read on
# either — and the trace record those goroutines write into past its inline
# room (internal/obs), and the root span's context a request keeps in its
# response writer, read by a goroutine that outlives the request
# (internal/serve). The explorations of the lease protocol
# (TestLeaseProtocolExplored, ≈ 100 s under -race) and of the part slot
# (TestPartSlotExplored, ≈ 10 s) start no goroutine: each runs once, in
# `go test -race ./...`, and the repeating lines skip them or do not select them.
test:
	go test ./...

race:
	go vet ./...
	go test -race ./...
	go test -race -count=3 -cpu=1,2 -skip '^(TestLeaseProtocolExplored|TestPartSlotExplored)$$' ./internal/mediator/ ./internal/engine/ ./internal/serve/ ./internal/cluster/ ./internal/xmlmodel/ ./internal/infer/ ./internal/automata/... ./internal/load/ ./internal/obs/ ./internal/oracle/
	go test -race -count=50 -cpu=1,2 -run 'TestFlight|TestPurgeFencesTheFlightInFlight|TestJoinerLeavesWithItsContext|TestPanicFailsWaitersAndPropagates|TestErrorIsTheLeadersOwn|TestSingleflightBlocksJoiners|TestConcurrentCompilerSingleflight|TestPlanSingleflight|TestInvalidateDiscardsInflightResult|TestMetricsSingleflightDedups|TestForwardBuildOncePerBurst|TestForwardJoinerLeavesWithItsContext|TestForwardIncompleteNotCached|TestFanOut|TestSimplifyReturnsWorkerPanic|TestEvalPoolAliasesNothing|TestScanPoolAliasesNothing|TestLonePartLeaderJoinersAndACancelledReader|TestPanickingWrapperFailsTheRead|TestOverflowKeepsEverything|TestRootContextOutlivesItsRequest' ./internal/automata/cache/ ./internal/automata/ ./internal/mediator/ ./internal/cluster/ ./internal/serve/ ./internal/infer/ ./internal/engine/ ./internal/xmlmodel/ ./internal/obs/
	go test -race -count=20 -cpu=1,2 -timeout 15m -run 'Answer|Forward|Lease|Memo|Splice|Renew|Revocation|Stream|TestOracleAcrossTheHop' -skip 'TestAnswersByPartEqualTheNaiveEvaluation|TestAnswerBytesEqualTheNaiveSerialization|TestPlanHitEqualsMissEqualsColdMemo|TestInferMemoDifferential|TestOracleWorkerPanicIsNoEmptyAnswer|TestLeaseProtocolExplored' ./internal/mediator/ ./internal/cluster/ ./internal/serve/ ./internal/oracle/

# Every allocation ratchet in the tree, by one name and without -race: a
# binary built with the race detector allocates differently (escape
# analysis and inlining change, sync.Pool drops at random), so a count that
# holds there says little about the binary we ship, and a ratchet that only
# fails without it must not be able to hide behind `make race`. A test that
# calls testing.AllocsPerRun says "Alloc" in its name; the root package's
# TestAllocsTargetRunsEveryAllocationRatchet (itself selected) fails on one
# that does not.
allocs:
	go test -count=1 -run Alloc ./...

# Rewrite internal/serve/testdata/metrics.golden — every /metrics family's
# name, help and type, every series' labels, every JSON key — from what the
# handler serves now. `go test ./...` (and so `make test`) compares against
# the file; run this only when the metrics surface is meant to change, and
# review the diff like an API change.
metrics-golden:
	go test -run '^TestMetricsGolden$$' ./internal/serve/ -update

# Robustness battery: fault injection (wire faults, scripted source
# failures), circuit-breaker state machine, budget degradation, and the
# panic-isolation fan-out tests, all under -race. These suites exercise
# scheduling-sensitive paths (singleflight teardown, breaker probes,
# concurrent fault scripts), so the race detector is mandatory here.
fault:
	go test -race -run 'Fault|Breaker|Degrad|FanOut|Panic|Budget' \
		./internal/mediator/ ./internal/infer/ ./internal/tightness/ \
		./internal/automata/... ./internal/sdtd/ ./internal/serve/ \
		./internal/budget/ ./internal/load/

# Short, bounded runs of every fuzz target against the parsers, of
# FuzzSpliceRuns against the splice of a view document's delta (a cluster
# member's copy, internal/mediator/splice.go), and of FuzzInvalidateReply
# against the hand-written POST /invalidate reply, which must be
# encoding/json's byte for byte. Each target gets FUZZTIME
# (default 10s); crashes land in testdata/fuzz as usual and should be
# committed as regression seeds.
FUZZTIME ?= 10s
fuzz:
	go test -run '^$$' -fuzz '^FuzzParseDocument$$' -fuzztime $(FUZZTIME) ./
	go test -run '^$$' -fuzz '^FuzzParseDTD$$' -fuzztime $(FUZZTIME) ./
	go test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME) ./
	go test -run '^$$' -fuzz '^FuzzParseContentModel$$' -fuzztime $(FUZZTIME) ./
	go test -run '^$$' -fuzz '^FuzzMarshalRoundTrip$$' -fuzztime $(FUZZTIME) ./
	go test -run '^$$' -fuzz '^FuzzSpliceRuns$$' -fuzztime $(FUZZTIME) ./internal/mediator/
	go test -run '^$$' -fuzz '^FuzzInvalidateReply$$' -fuzztime $(FUZZTIME) ./internal/serve/

# Every mutant of testdata/mutants.txt, each laid over the tree with go test
# -overlay (the tree is never edited) and run against the tests its row
# names, all of which must fail (mutants_run_test.go; ≈ 3.5 min for 51
# rows on 2 cores). Tier 1 checks the table without running it
# (TestMutantsTableMatchesTheTree).
mutants:
	go test -tags mutants -count=1 -timeout 60m -run '^TestMutantsAreKilled$$' .

# Everything a change should pass before review: tier-1 build/vet/test,
# the allocation ratchets, the mutants, staticcheck, the -race suite, the
# -race robustness battery, and bounded fuzzing of the parsers — the same
# gates the CI workflow's blocking jobs run (ci.yml: test, mutants, lint,
# race, fault), so a green `make check` predicts a green CI run up to the
# long campaigns (cover/load-smoke/chaos/cluster-smoke, which `make ci` adds).
check: all allocs mutants lint race fault
	$(MAKE) fuzz FUZZTIME=5s

bench:
	go test -bench=. -benchmem ./

# Bounded smoke of the sustained-load harness (cmd/mixload: a deterministic
# open-loop mixed operation stream over a synthesized XMark-class fleet,
# asserted against p95/p99/error-rate/degradation SLOs) for every push: ~10s
# of traffic plus a pruning-soundness comparison run, exit nonzero on any
# SLO violation. The nightly workflow runs the same harness for 30s.
load-smoke:
	go run ./cmd/mixload -seed 1 -rps 120 -duration 10s -prune-compare -quiet

# Replica chaos campaign (cmd/mixload -chaos): a replicated 3×3 fleet
# driven through baseline → flapping-replica → total-blackout → recovery
# phases, asserted against the failover SLOs (flap: zero errors, p99 ≤ 2×
# baseline; blackout: stale-served, DTD-valid answers under the retry
# budget's upstream ceiling; recovery: fresh answers again) and archived
# as CHAOS_report.json. Blocking in CI.
chaos:
	go run ./cmd/mixload -chaos -seed 1 -rps 120 -chaos-phase 2s -out CHAOS_report.json

# Multi-node cluster smoke (cmd/mixload -cluster): an in-process 3-node
# mediator fleet sharing one consistent-hash ring over 4 sharded views
# (one replicated), asserted against the distribution contract — every
# endpoint of every node answers bit-identical to the view's first owner
# (internal/oracle checks that an owner answers what a naive mediator
# does), zero errors under load, and killing one node
# leaves non-owned views serving with zero errors, fails replicated views
# over, and turns orphaned views into clean 502s (never hangs). Archived
# as CLUSTER_report.json. Blocking in CI.
cluster-smoke:
	go run ./cmd/mixload -cluster -seed 1 -rps 100 -cluster-phase 2s -out CLUSTER_report.json

# Regenerate every paper artifact (EXPERIMENTS.md).
experiments:
	go run ./cmd/mixbench

experiments-quick:
	go run ./cmd/mixbench -quick

# Coverage with a ratchet: the total must not fall below the checked-in
# COVERAGE_BASELINE (percent). Raise the baseline when coverage genuinely
# improves; never lower it to make a change pass.
COVERPROFILE ?= /tmp/mix.cover
cover:
	go test -coverprofile=$(COVERPROFILE) ./...
	@total=$$(go tool cover -func=$(COVERPROFILE) | tail -1 | awk '{gsub(/%/, "", $$NF); print $$NF}'); \
	floor=$$(cat COVERAGE_BASELINE); \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { \
		if (t + 0 < f + 0) { printf "FAIL: coverage %.1f%% is below baseline %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% (baseline %.1f%%)\n", t, f }'

# Rewrite every file gofmt would flag; `ci` only checks.
fmt:
	gofmt -l -w .

# What the CI workflow runs, invocable locally before pushing: the gofmt
# gate, tier-1 build/vet/test, the mutants, the -race suite, the
# fault-injection battery, the coverage floor, the bounded load smoke, the
# replica chaos campaign, and the multi-node cluster smoke.
ci:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(MAKE) all
	$(MAKE) mutants
	$(MAKE) race
	$(MAKE) fault
	$(MAKE) cover
	$(MAKE) load-smoke
	$(MAKE) chaos
	$(MAKE) cluster-smoke

# The artifacts requested by the reproduction protocol.
outputs:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
