GO ?= go
# Scratch dir for the kernel test log written by test-kernels.
BENCH_SCRATCH ?= /tmp/microrec-bench
# Where loadtest-smoke writes its three JSON reports.
LOADTEST_OUT ?= /tmp/microrec-loadtest

.PHONY: build vet vet-custom fmt-check test test-procs test-kernels test-noasm test-benchmark race bench bench-smoke loadtest-smoke obs-smoke fuzz-smoke vulncheck ci

build:
	$(GO) build ./...

# The second line vets offheap's no-op huge-page twin, which no Linux build
# compiles; the third vets the !unix twins (offheap_other.go, mmap_other.go),
# which no unix build compiles, darwin included.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/offheap ./internal/core
	GOOS=windows $(GO) vet ./internal/offheap ./internal/tieredstore ./internal/core

# vet-custom runs microrec-vet, the repo's own go/analysis suite (lockheld,
# hotalloc, atomicfield, statsnapshot, deadexport): the mechanized
# concurrency and zero-alloc invariants of the datapath, and no internal
# exported function or method that only tests call. Exit 2 = findings. microrec-vet analyses the
# build it is built for, so the second pass checks the noasm files
# (quantize_noasm.go, prefetch_other.go) the default build leaves out.
vet-custom:
	$(GO) run ./cmd/microrec-vet ./...
	$(GO) run -tags noasm ./cmd/microrec-vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt required on:"; echo "$$out"; exit 1; fi

test: build
	$(GO) test ./...

# test-procs reruns the engine, the server and the router at one and at four
# procs. The gather is one walk on the calling goroutine, so predictions,
# cache and tier counters must not depend on the host's core count.
# The server's drains own their scheduling (the dense stage's yield before it
# parks, stage overlap, the pool's run-to-completion workers), so serving and
# routing must hold on one core as on four. The second line reruns the
# serving tests of two races that once flaked on a loaded host (stage overlap
# read from the spans; a cancel against the queue send, at plane fill and at
# the admission gate) ten times at each, so a regression shows here.
test-procs:
	$(GO) test -cpu 1,4 ./internal/core ./internal/serving ./internal/router
	$(GO) test -count=10 -cpu 1,4 -run '^(TestStagesOverlap|TestCancelDropsSkipWork|TestGateCancelCounted)$$' ./internal/serving

# test-kernels names the kernel paths this host dispatched and runs the
# kernel tests verbosely, one subtest per registered implementation: on a
# host without AVX-512 VNNI (or AVX2) those cases print SKIP with the missing
# feature instead of passing silently on a fallback.
test-kernels:
	$(GO) run ./cmd/microrec kernels
	mkdir -p $(BENCH_SCRATCH)
	$(GO) test -v -run 'Gemm|Layer|FinishRow|Extend|Features' ./internal/kernels > $(BENCH_SCRATCH)/kernel-tests.txt || { cat $(BENCH_SCRATCH)/kernel-tests.txt; exit 1; }
	grep -E '^ *--- [A-Z]+: Test[^/ ]*(/[^/ ]*){0,2} |kernel features|^ok' $(BENCH_SCRATCH)/kernel-tests.txt

# test-noasm forces the portable kernel path (the noasm build tag disables
# every optimized kernel, Features() reports "portable") and reruns the whole
# suite — including the kernel bit-identity property tests, which then prove
# the reference path against itself, and every datapath golden test, which
# must not notice the kernel swap.
test-noasm:
	$(GO) build -tags noasm ./...
	$(GO) test -tags noasm ./...

# test-benchmark vets and tests the repository benchmark. benchmark/ is its
# own module (replace microrec => ../), so the root `./...` patterns above
# never compile it: a change to the facade or the plane-stage methods it calls
# would otherwise break it unseen.
test-benchmark:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-smoke runs the datapath/serving benchmarks once each — a fast check
# that the hot paths still execute, used by CI ('Serve' includes
# BenchmarkServeLightLoad, whose p50-us is the lightly loaded latency; 'Gather'
# includes BenchmarkGatherMiss, the gather over tables a lookup can miss in;
# 'Dense' is BenchmarkDenseStage, the FC tower alone at both widths). The
# kernel microbenchmarks ride along so the SIMD paths are exercised under the
# bench harness too, with the peak loops and memory probes their numbers are
# read against, and
# so does the engine build's bulk step: parameter materialisation
# (production-large at the benchmark's row cap).
bench-smoke:
	$(GO) test -run xxx -bench 'Gather|Serve|EngineInferOne|Pipeline|Dense' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'GEMMKernel|FinishRow|QuantizeRow|Extend|Peak' -benchtime 1x -benchmem ./internal/kernels
	$(GO) test -run xxx -bench 'Materialize' -benchtime 1x -benchmem ./internal/model

# loadtest-smoke drives the open-loop load harness end to end three ways: one
# server; two tiered replicas behind the affinity router (calibrated under
# round-robin, swept under affinity, so the report carries the router section
# and the lift in the tiers' frequency-window hit rate); and an engine whose
# every lookup resolves through the tiered store's mmap'd cold file.
loadtest-smoke:
	mkdir -p $(LOADTEST_OUT)
	$(GO) run ./cmd/microrec loadtest -n 400 -o $(LOADTEST_OUT)/loadtest.json
	$(GO) run ./cmd/microrec loadtest -n 400 -replicas 2 -route affinity -cold-tier tmp -o $(LOADTEST_OUT)/loadtest_routed.json
	$(GO) run ./cmd/microrec loadtest -n 400 -cold-tier tmp -o $(LOADTEST_OUT)/loadtest_cold.json

# fuzz-smoke gives each fuzz target a short budget (exactly the CI step):
# enough to replay the corpus and catch shallow regressions in the histogram
# quantile math, the obs trace/metrics writers, the 16- and 32-bit GEMM
# kernels (every implementation the host can run against the reference), the
# parameter stream's recurrence (each path against the reference), the
# gather's row reduction (reciprocal against remainder) and raw /predict
# bodies (never a panic or a 500) without stalling the build.
fuzz-smoke:
	$(GO) test ./internal/kernels -fuzz FuzzGemm16Identity -fuzztime 10s -run '^$$'
	$(GO) test ./internal/kernels -fuzz FuzzGemm32Identity -fuzztime 10s -run '^$$'
	$(GO) test ./internal/kernels -fuzz FuzzExtendIdentity -fuzztime 10s -run '^$$'
	$(GO) test ./internal/core -fuzz FuzzRowReduce -fuzztime 10s -run '^$$'
	$(GO) test ./internal/metrics -fuzz FuzzHistogramQuantile -fuzztime 10s -run '^$$'
	$(GO) test ./internal/obs -fuzz FuzzSpanTraceEvents -fuzztime 10s -run '^$$'
	$(GO) test ./internal/obs -fuzz FuzzMetricWriter -fuzztime 10s -run '^$$'
	$(GO) test ./cmd/microrec -fuzz FuzzPredictRequest -fuzztime 10s -run '^$$'

# vulncheck scans the module against the Go vulnerability database when
# govulncheck is installed; skipped (with a note) where it isn't — the tool
# needs network access, so offline dev boxes stay green.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# obs-smoke is the observability end-to-end check (exactly the CI step): a
# live server with tracing + pprof on, real traffic, and validation of the
# /metrics Prometheus exposition, the /trace trace-event JSON, and the pprof
# mount.
obs-smoke:
	GO=$(GO) sh scripts/obs_smoke.sh

# ci mirrors the CI job sequence locally (lint job + test job, one leg), so a
# red CI reproduces in one command.
ci: build vet vet-custom fmt-check test test-procs test-kernels test-noasm test-benchmark race bench-smoke loadtest-smoke obs-smoke fuzz-smoke vulncheck
