GO ?= go

.PHONY: build test verify fuzz bench bench-memmodel bench-translate bench-fences bench-serve bench-litmus bench-sim profile-translate profile-sim

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the robustness gate: static analysis plus the diagnostic,
# fault-injection, cache crash-safety, daemon chaos (streaming, resume,
# slowloris eviction), and self-healing-client suites under the race
# detector (./internal/serve/... includes internal/serve/client).
verify:
	$(GO) vet ./...
	$(GO) test -race ./internal/diag/... ./internal/core/... ./internal/serve/...

# fuzz runs the FuzzTranslate target for 30s (the fault-tolerance contract:
# no escaped panics, every failure yields a diagnostic).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTranslate -fuzztime 30s .

bench:
	$(GO) test -bench . -benchmem .

# bench-memmodel measures the axiomatic checking core (the Thm 7.1 bounded
# mapping sweep and the Fig. 11a reorder checker) and records the raw
# `go test -json` stream for regression tracking.
bench-memmodel:
	$(GO) test -json -run '^$$' -bench 'CheckMappingExhaustive|Fig11aTable|SteadyStateVisit' \
		-benchmem -count 3 ./internal/memmodel > BENCH_memmodel.json
	@echo "wrote BENCH_memmodel.json"

# bench-translate measures the staged translation pipeline over the whole
# Phoenix suite, cold (empty translation cache), warm (every function
# replayed from the suffix tier) and warm-object (every module replayed
# whole from the module tier), plus the cold object-to-object translation
# of the six suite kernels in both directions that perfbench's
# translate-cold workload times, and records the raw `go test -json` stream.
bench-translate:
	$(GO) test -json -run '^$$' -bench 'TranslatePhoenix|TranslateSuite' \
		-benchmem -count 3 . > BENCH_translate.json
	@echo "wrote BENCH_translate.json"

# profile-translate profiles the cold x86->Arm translation of the six suite
# kernels (BenchmarkTranslateSuite/x86-arm, one CPU, 40 iterations) and
# prints the top 40 functions by cumulative CPU. The test binary and the
# profile go to a fresh temporary directory, never into the repository.
profile-translate:
	@dir=$$(mktemp -d) && \
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkTranslateSuite/x86-arm' -benchtime 40x \
		-cpuprofile $$dir/cpu.prof -o $$dir/lasagne.test . && \
	$(GO) tool pprof -top -cum -nodecount 40 $$dir/lasagne.test $$dir/cpu.prof && \
	echo "profile and test binary in $$dir"

# profile-sim profiles the threaded simulator over the Phoenix suite
# (BenchmarkSimPhoenix/threaded: every kernel's x86-64 input and its Arm64
# translation, one CPU, 3 iterations) and prints the top 40 functions by
# flat CPU. The test binary and the profile go to a fresh temporary
# directory, never into the repository.
profile-sim:
	@dir=$$(mktemp -d) && \
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkSimPhoenix/threaded' -benchtime 3x \
		-cpuprofile $$dir/cpu.prof -o $$dir/lasagne.test . && \
	$(GO) tool pprof -top -nodecount 40 $$dir/lasagne.test $$dir/cpu.prof && \
	echo "profile and test binary in $$dir"

# bench-serve drives an in-process lasagned with 8 clients round-robining
# over 4 Phoenix modules against one shared translation cache, then a
# streaming phase (4 full-suite /translate/stream batches per client via
# the self-healing client), and records throughput, latency percentiles,
# and streaming health. Fails if any response or frame is malformed or any
# clean result is not byte-identical to the batch pipeline's output.
bench-serve:
	$(GO) run ./cmd/lasagne-bench -serve-load 8x4 -serve-requests 32 -serve-stream 4 -serve-out BENCH_serve.json
	@echo "wrote BENCH_serve.json"

# bench-litmus measures the incremental litmus campaign engine at bound 3:
# family size, symmetry-prune factor, cold full-verification time, and the
# warm re-run (100% fingerprint hits) with its speedup over cold.
bench-litmus:
	$(GO) run ./cmd/lasagne-bench -litmus 3 -litmus-out BENCH_litmus.json
	@echo "wrote BENCH_litmus.json"

# bench-sim times both interpreter engines (reference: one compiled
# instruction per scheduler step; threaded: fused superblocks and the
# sorted ready list, over the same compiled instructions) on every Phoenix
# and lock-free kernel, both the x86-64 input binary and its Arm64
# translation, best of 3 runs each. Fails if the engines diverge on output,
# cycle count, or instruction count anywhere.
bench-sim:
	$(GO) run ./cmd/lasagne-bench -sim 3 -sim-out BENCH_sim.json
	@echo "wrote BENCH_sim.json"

# bench-fences measures the weaker-than-DMB lowering: per-kernel fence
# counts at each tier of the lattice (naive Fig. 8a placement, §7.2 merged,
# escape-elided + acquire/release) with simulated cycle deltas, plus the
# placement micro-benchmark, and records the raw `go test -json` stream.
bench-fences:
	$(GO) test -json -run 'TestFenceLoweringTable' -bench 'BenchmarkFencePlacement' \
		-benchmem . > BENCH_fences.json
	@echo "wrote BENCH_fences.json"
