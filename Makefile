# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet lint race allocs metrics-golden fault fuzz check bench bench-compare bench-prune bench-stream bench-serve bench-cluster load-smoke chaos cluster-smoke experiments cover clean fmt ci

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
# and internal/cluster run again at -count=3 -cpu=1,2: the part-slot
# singleflight, the query-plan memo, the handlers above them and the forward
# transports (hedged owner fetches, per-view build slots) are
# scheduling-sensitive, and the repeat keeps every test of the four
# independent of what ran before it (process-wide caches, shared fixtures).
# internal/xmlmodel rides along: its trees are arrays shared between
# elements, and the ownership tests (slab_test.go) are what says the sharing
# stops there. internal/infer too: a kept plan is its analysis run once, and
# the refinement fan-out under it takes the serial path at -cpu=1 and the
# goroutine path at -cpu=2. internal/load last: its one open-loop dispatcher
# is shared by all three campaigns, and whether a slot is free at an
# operation's turn — sent or shed — is decided by the scheduler. internal/obs
# because a request's trace is one record that every part goroutine of the
# request writes, and that /debug/trace reads while they do.
test:
	go test ./...

race:
	go vet ./...
	go test -race ./...
	go test -race -count=3 -cpu=1,2 ./internal/mediator/ ./internal/engine/ ./internal/serve/ ./internal/cluster/ ./internal/xmlmodel/ ./internal/infer/ ./internal/automata/... ./internal/load/ ./internal/obs/

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

# Short, bounded runs of every fuzz target against the parsers. Each
# target gets FUZZTIME (default 10s); crashes land in testdata/fuzz as
# usual and should be committed as regression seeds.
FUZZTIME ?= 10s
fuzz:
	go test -run '^$$' -fuzz '^FuzzParseDocument$$' -fuzztime $(FUZZTIME) ./
	go test -run '^$$' -fuzz '^FuzzParseDTD$$' -fuzztime $(FUZZTIME) ./
	go test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME) ./
	go test -run '^$$' -fuzz '^FuzzParseContentModel$$' -fuzztime $(FUZZTIME) ./
	go test -run '^$$' -fuzz '^FuzzMarshalRoundTrip$$' -fuzztime $(FUZZTIME) ./

# Everything a change should pass before review: tier-1 build/vet/test,
# the allocation ratchets, staticcheck, the -race suite, the -race
# robustness battery, and bounded fuzzing of the parsers — the same gates
# the CI workflow's blocking jobs run (ci.yml: test, lint, race, fault), so
# a green `make check` predicts a green CI run up to the long campaigns
# (cover/load-smoke/chaos/cluster-smoke, which `make ci` adds).
check: all allocs lint race fault
	$(MAKE) fuzz FUZZTIME=5s

bench:
	go test -bench=. -benchmem ./

# Archive the compiled-automata cache benchmarks (cold vs warm) as
# machine-readable JSON, including the cold/warm speedup factors. Compare
# BENCH_automata.json across commits to track the cache's figure of merit.
bench-compare:
	go test -run '^$$' -bench . -benchmem ./internal/automata | go run ./cmd/benchjson | tee BENCH_automata.json

# Archive the query-time pruning benchmarks (Cold = pruning disabled,
# every source fetched; Warm = pruning enabled, provably-irrelevant
# sources skipped) as JSON with the cold/warm speedup factor. Compare
# BENCH_prune.json across commits to track pruning's figure of merit.
bench-prune:
	go test -run '^$$' -bench BenchmarkPruneUnionQuery -benchmem ./internal/mediator | go run ./cmd/benchjson | tee BENCH_prune.json

# Archive the streaming-validation and delta-maintenance benchmarks
# (ValidateDoc: Cold = tree parse + validate, Warm = streaming validator;
# InvalidateMix: Cold = global invalidate after every source changed,
# Warm = per-source delta invalidate of the one source that changed,
# Unchanged = global invalidate after nothing changed: every refetch
# returns the document held and every part is carried over, unpaired) as
# JSON with the cold/warm speedup factors. Compare
# BENCH_stream.json across commits — `benchjson -compare old.json
# new.json` is the mechanical ratchet.
bench-stream:
	go test -run '^$$' -bench 'BenchmarkValidateDoc|BenchmarkInvalidateMix' -benchmem \
		./internal/dtd ./internal/mediator | go run ./cmd/benchjson | tee BENCH_stream.json

# Sustained-load SLO run (cmd/mixload): a deterministic open-loop mixed
# operation stream over a synthesized XMark-class fleet, asserted against
# p95/p99/error-rate/degradation SLOs and archived as BENCH_serve.json.
# Compare across commits to track the serving path's figure of merit.
bench-serve:
	go run ./cmd/mixload -seed 1 -rps 150 -duration 30s -out BENCH_serve.json

# Bounded smoke of the same harness for every push: ~10s of traffic plus a
# pruning-soundness comparison run, exit nonzero on any SLO violation.
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
# endpoint of every node answers bit-identical to a single-node mediator
# over the same sources, zero errors under load, and killing one node
# leaves non-owned views serving with zero errors, fails replicated views
# over, and turns orphaned views into clean 502s (never hangs). Archived
# as CLUSTER_report.json. Blocking in CI.
cluster-smoke:
	go run ./cmd/mixload -cluster -seed 1 -rps 100 -cluster-phase 2s -out CLUSTER_report.json

# Archive the cluster-tier benchmarks (ForwardHop: Cold = first forwarded
# request, peer transport built from scratch including the owner DTD round
# trip; Warm = cached transport, one owner round trip that finds the owner's
# document unchanged (304); Changed = the same with the owner invalidated
# before every request, so the document is shipped; RingOwner[sRep...]:
# view-to-owner lookups) as JSON with the cold/warm factor. Compare
# BENCH_cluster.json across commits to track the forward hop's overhead.
bench-cluster:
	go test -run '^$$' -bench 'BenchmarkForwardHop|BenchmarkRingOwner' -benchmem \
		./internal/cluster ./internal/serve | go run ./cmd/benchjson | tee BENCH_cluster.json

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
# gate, tier-1 build/vet/test, the -race suite, the fault-injection
# battery, the coverage floor, the bounded load smoke, the replica chaos
# campaign, and the multi-node cluster smoke.
ci:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(MAKE) all
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
