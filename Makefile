# thermosc — common development targets. Everything is stdlib-only Go;
# no tools beyond the Go toolchain are required.

GO ?= go
# Per-target fuzzing time; CI's smoke job overrides this to 10s.
FUZZTIME ?= 30s
# Minimum total statement coverage (percent) enforced by cover-check.
COVER_MIN ?= 83

.PHONY: all build vet lint test test-race bench bench-json experiments \
        fuzz fuzz-smoke serve-smoke serve-chaos cluster-soak cluster-churn \
        rig-soak rig-soak-starved verify-diff cover cover-check perfbench-check \
        ci clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static hygiene: gofmt (fails on any unformatted file), go vet, and —
# when installed — staticcheck. The container has no network, so
# staticcheck is soft-gated locally; the CI lint job installs it and gets
# the full pass.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed — skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark report + three-dimension regression gate
# (ns/op, allocs/op, bytes/op) against the checked-in baseline, plus a
# before/after comparison table for the CI artifact (see docs/PERF.md).
# The rows are bench_test.go benchmarks, run through go test -bench.
# The parallel-speedup floor only binds when GOMAXPROCS > 1 — CI's bench
# job runs on a multi-core runner and sets MIN_PAR_SPEEDUP.
MIN_PAR_SPEEDUP ?= 0
bench-json:
	$(GO) run ./cmd/thermosc-bench -out BENCH_ao.ci.json -baseline BENCH_ao.json \
		-min-par-speedup $(MIN_PAR_SPEEDUP) -compare-out bench_compare.md

# Regenerate every paper table/figure (text).
experiments:
	$(GO) run ./cmd/thermosc-experiments | tee docs/experiments_full_output.txt

# Short fuzzing passes over the parsers and transforms. -run '^$' keeps
# each step from rerunning its package's unit suite (the test job runs
# those); every target still replays its seed corpus before fuzzing.
fuzz:
	$(GO) test ./internal/schedule -run '^$$' -fuzz FuzzShiftRotate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/schedule -run '^$$' -fuzz FuzzMOscillateInvariants -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rig -run '^$$' -fuzz FuzzRigScenario -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzPlanUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzServeRequest -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzSimulateRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzPlanStoreSync -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzFileStoreRecover -fuzztime $(FUZZTIME)
	$(GO) test ./internal/floorplan -run '^$$' -fuzz FuzzGenSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/solver -run '^$$' -fuzz FuzzEXSLP -fuzztime $(FUZZTIME)

# Quick CI smoke pass over the same fuzz targets.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# End-to-end smoke of the planning daemon: build thermosc-serve, run it
# on an ephemeral port, solve once per method, and diff the plans against
# testdata/serve_golden. Regenerate the goldens after an intentional
# solver change by appending -update-serve-golden.
serve-smoke:
	THERMOSC_SERVE_E2E=1 $(GO) test -run TestServeE2EGolden -count=1 -v .

# Plan store configurations the chaos, soak and churn suites run once
# each against (mem = in memory only, file = with a crash-safe
# append-only log at ClusterConfig.StorePath).
STORE_BACKENDS ?= mem file

# Chaos storm against the planning daemon, race-enabled, once per plan
# store configuration: concurrent requests under tiny deadlines with
# seeded random solver panics. Zero daemon crashes allowed; every 200
# body must pass the verification oracle; after Shutdown no flight,
# queued request or solve slot may remain. Each configuration's final
# /v1/stats snapshot lands in serve_chaos_stats_<b>.json.
CHAOS_REQUESTS ?= 400
serve-chaos:
	@for b in $(STORE_BACKENDS); do \
		echo "== serve-chaos [store=$$b] =="; \
		THERMOSC_CHAOS_STORE=$$b \
		THERMOSC_CHAOS_REQUESTS=$(CHAOS_REQUESTS) \
		THERMOSC_CHAOS_STATS=$(CURDIR)/serve_chaos_stats_$$b.json \
		$(GO) test -race -run TestServeChaos -count=1 -v . || exit 1; \
	done

# Fleet soak, race-enabled, once per plan store configuration: a
# seed-pinned zipf workload through a 3-replica in-process cluster.
# Exact request accounting, zero transport errors, byte-identical plans
# per canonical key across every replica, and post-load anti-entropy
# convergence; each configuration's load report lands in
# cluster_soak_report_<b>.json. CI raises CLUSTER_REQUESTS to 100000.
CLUSTER_REQUESTS ?= 2500
cluster-soak:
	@for b in $(STORE_BACKENDS); do \
		echo "== cluster-soak [store=$$b] =="; \
		THERMOSC_CLUSTER_STORE=$$b \
		THERMOSC_CLUSTER_REQUESTS=$(CLUSTER_REQUESTS) \
		THERMOSC_CLUSTER_REPORT=$(CURDIR)/cluster_soak_report_$$b.json \
		$(GO) test -race -run TestClusterSoak -count=1 -v . || exit 1; \
	done

# Churn chaos battery, race-enabled, once per plan store configuration:
# every test in serve_cluster_churn_test.go — the self-healing suite (failure
# detection, health-aware re-routing, re-admission sync, drain) plus a
# seed-pinned kill/restart schedule and a rolling restart of every node
# under live load. Exact accounting, no 5xx to clients, bounded errors
# confined to kill windows, and post-heal byte-identical convergence;
# each configuration's phase-split load report and per-peer health timeline
# land in cluster_churn_{report,timeline}_<b>.json. The test list is
# read from the file, so a renamed or added test cannot drop out of it.
CHURN_REQUESTS ?= 2000
CHURN_TESTS := $(shell grep -o '^func Test[A-Za-z0-9_]*' serve_cluster_churn_test.go | cut -d' ' -f2 | paste -sd'|' -)
cluster-churn:
	@for b in $(STORE_BACKENDS); do \
		echo "== cluster-churn [store=$$b] =="; \
		THERMOSC_CLUSTER_STORE=$$b \
		THERMOSC_CHURN_REQUESTS=$(CHURN_REQUESTS) \
		THERMOSC_CHURN_REPORT=$(CURDIR)/cluster_churn_report_$$b.json \
		THERMOSC_CHURN_TIMELINE=$(CURDIR)/cluster_churn_timeline_$$b.json \
		$(GO) test -race -run '^($(CHURN_TESTS))$$' -count=1 -v . || exit 1; \
	done

# Closed-loop soak: 20 seed-pinned fault scenarios under the guarded AO
# plan, each replayed twice. Exits nonzero on ANY thermal violation
# (true peak above Tmax + guard band) or nondeterministic trace; the JSON
# report lands in rig_soak.json for inspection.
RIG_SOAK_N ?= 20
RIG_SOAK_SEED ?= 1
rig-soak:
	$(GO) run ./cmd/thermosc-rig soak -n $(RIG_SOAK_N) -seed $(RIG_SOAK_SEED) > rig_soak.json
	@echo "rig-soak: $(RIG_SOAK_N) scenarios pass (report in rig_soak.json)"

# Same soak with the planner deadline-starved mid-scenario: at the
# horizon midpoint every scenario swaps to a replan solved under
# PLAN_BUDGET (degraded best-so-far or the constant safe floor). The
# guard band must hold regardless — degraded planning may cost
# throughput, never safety.
PLAN_BUDGET ?= 1ms
rig-soak-starved:
	$(GO) run ./cmd/thermosc-rig soak -n $(RIG_SOAK_N) -seed $(RIG_SOAK_SEED) \
		-plan-budget $(PLAN_BUDGET) > rig_soak_starved.json
	@echo "rig-soak-starved: $(RIG_SOAK_N) scenarios hold Tmax+guard under a $(PLAN_BUDGET) plan budget (report in rig_soak_starved.json)"

# Differential verification: solve N seeded random platforms with
# AO/PCO/EXS, re-check every plan against the independent oracle
# (internal/verify), then require K seeded mutations of verified plans to
# all be flagged. Exits nonzero on any divergence or missed mutation.
VERIFY_N ?= 50
VERIFY_SEED ?= 1
VERIFY_MUT ?= 20
verify-diff:
	$(GO) run ./cmd/thermosc-verify -sweep $(VERIFY_N) -seed $(VERIFY_SEED) -mutations $(VERIFY_MUT)

cover:
	$(GO) test ./... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

# Fail if total statement coverage drops below COVER_MIN percent.
cover-check: cover
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$NF}' | tr -d '%'); \
	pass=$$(awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN{print (t >= m) ? 1 : 0}'); \
	if [ "$$pass" -ne 1 ]; then \
		echo "coverage $$total% is below the $(COVER_MIN)% gate"; exit 1; \
	fi; \
	echo "coverage $$total% >= $(COVER_MIN)% gate"

# perfbench/ is its own Go module (it replaces thermosc with ../), so
# build, vet and test above never compile it; this target keeps a root
# API change from breaking the serve-level benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Everything CI runs, in one target, for local pre-push verification.
ci: build lint test test-race perfbench-check fuzz-smoke serve-smoke \
    serve-chaos cluster-soak cluster-churn rig-soak rig-soak-starved \
    verify-diff cover-check bench-json

clean:
	rm -f cover.out test_output.txt bench_output.txt BENCH_ao.ci.json \
	      bench_compare.md rig_soak.json rig_soak_starved.json \
	      serve_chaos_stats_*.json cluster_soak_report_*.json \
	      cluster_churn_report_*.json cluster_churn_timeline_*.json
