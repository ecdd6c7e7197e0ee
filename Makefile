# Developer entry points. `make check` is the expanded verification
# gate (build, gofmt, vet, tests, race detector); see check.sh.

.PHONY: build test check lint vet-tool fmt bench bench-pr3 bench-pr4 bench-pr7 bench-pr8 bench-pr9 serve profile conformance fuzz-smoke

build:
	go build ./...

test:
	go test ./...

check:
	./check.sh

# Lint the bundled sample configuration end to end (smoke test of the
# afdx-lint CLI; expects a clean exit).
lint:
	go run ./cmd/afdx-lint -rules

# Run the determinism-contract checker over the whole tree (the same
# gate check.sh enforces; exit 1 on any unsuppressed DET finding).
vet-tool:
	go run ./cmd/afdx-vet ./...

fmt:
	gofmt -w .

# Time the industrial engine benchmarks sequentially (-parallel 1) and
# parallel (-parallel 0 = all CPUs) and record ns/op plus the parallel
# speedup in BENCH_PR2.json. The bit-reproducibility contract makes the
# two variants compute identical bounds, so the ratio is pure wall-time.
bench:
	go test -run '^$$' -bench 'Industrial(Seq|Par)$$' -benchtime 2x . \
		| tee /dev/stderr | go run ./cmd/afdx-benchjson -o BENCH_PR2.json

# Time the conformance oracle sequentially and parallel (one op = a
# 16-config campaign; the verdicts are identical either way, so the
# ratio is pure wall time) and record ns/op, configs/s and the speedup
# in BENCH_PR3.json.
bench-pr3:
	go test -run '^$$' -bench 'ConformanceOracle(Seq|Par)$$' -benchtime 3x ./internal/conformance \
		| tee /dev/stderr | go run ./cmd/afdx-benchjson -o BENCH_PR3.json

# Time the trajectory engine on the industrial configuration through
# the reference (pre-flattening) hot path (Cold) and the flat
# index-based one (Fast), sequentially and parallel. The differential
# suite (internal/trajectory/flat_test.go) proves the two bit-identical,
# so the recorded ratio is pure hot-loop wall time; pairs use the
# fastest of 3 samples. Expected: Seq speedup >= 5x.
bench-pr7:
	go test -run '^$$' -bench 'TrajectoryIndustrial(Seq|Par)(Cold|Fast)$$' -benchtime 2x -count 3 ./internal/trajectory \
		| tee /dev/stderr | go run ./cmd/afdx-benchjson -o BENCH_PR7.json

# Time one interactive what-if question answered cold (full re-analysis
# of the mutated industrial configuration, CLI-style) and through a warm
# afdx-serve session over real HTTP, wire round-trip included. The
# served-conformance tier proves both compute bit-identical bounds, so
# the recorded speedup is the latency the daemon saves an exploration
# loop; pairs use the fastest of 3 samples.
bench-pr8:
	go test -run '^$$' -bench 'ServeWhatIf(Cold|Served)$$' -benchtime 3x -count 3 ./internal/serve \
		| tee /dev/stderr | go run ./cmd/afdx-benchjson -o BENCH_PR8.json

# Time the served what-if loop with the operational observability stack
# fully off versus fully on (JSON request/delta logs, per-request
# tracing into the retention ring, slow-request detection on every
# request, runtime sampler, per-bound provenance). The non-interference
# tier proves the bounds bit-identical either way, so the recorded
# obs_off_on_pairs overhead is the full price of observing a served
# answer. The pair is interleaved across 4 separate runs (rather than
# -count 4 in one) so both variants sample the same machine epochs —
# on a shared runner, sequential halves drift by more than the effect
# being measured; fastest-of damps the rest. Budget: <= 5%.
bench-pr9:
	for i in 1 2 3 4; do \
		go test -run '^$$' -bench 'ServeWhatIfObs(Off|On)$$' -benchtime 5x ./internal/serve || exit 1; \
	done | tee /dev/stderr | go run ./cmd/afdx-benchjson -o BENCH_PR9.json

# Start the analysis daemon on the default loopback port (see README
# "Serving" for the curl walkthrough; Ctrl-C drains gracefully).
serve:
	go run ./cmd/afdx-serve -addr 127.0.0.1:8723

# Measure the observability layer itself: per-engine instrumented/plain
# wall-time ratio (median over interleaved rounds; budget <= 5%) plus
# the engine counter totals, recorded in BENCH_PR4.json.
bench-pr4:
	go run ./cmd/afdx-benchjson -obs -o BENCH_PR4.json

# Capture CPU and heap profiles of the full industrial analysis under
# profiles/ (gitignored); inspect with `go tool pprof`.
profile:
	mkdir -p profiles
	go run ./cmd/afdx-gen -seed 1 -out profiles/industrial.json
	go run ./cmd/afdx-bounds -config profiles/industrial.json \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof \
		-metrics profiles/metrics.json > /dev/null
	@echo "profiles written: profiles/{cpu,mem}.pprof, profiles/metrics.json"

# Cross-engine differential campaign: deterministic family, full
# invariant lattice, shrunk reproductions land in the replay corpus.
conformance:
	go run ./cmd/afdx-conformance -n 500 -seed 1 -corpus internal/conformance/testdata

# Run every native fuzz target for ~10s (the smoke tier; longer runs
# are a manual `go test -fuzz=... -fuzztime=10m` away).
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s ./internal/afdx
	go test -run '^$$' -fuzz '^FuzzConformanceConfig$$' -fuzztime 10s ./internal/conformance
	go test -run '^$$' -fuzz '^FuzzParseDelta$$' -fuzztime 10s ./internal/incremental
	go test -run '^$$' -fuzz '^FuzzServeWhatIf$$' -fuzztime 10s ./internal/serve
