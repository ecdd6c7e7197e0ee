# Developer entry points. `make check` is the expanded verification
# gate (build, gofmt, vet, tests, race detector); see check.sh.

.PHONY: build test check lint vet-tool fmt bench serve profile conformance fuzz-smoke

build:
	go build ./...

test:
	go test ./...

check:
	./check.sh

# Lint the bundled sample configuration end to end (smoke test of the
# afdx-lint CLI; expects a clean exit).
lint:
	go run ./cmd/afdx-lint internal/lint/testdata/clean.json

# Run the determinism-contract checker over the whole tree (the same
# gate check.sh enforces; exit 1 on any unsuppressed DET finding).
vet-tool:
	go run ./cmd/afdx-vet ./...

fmt:
	gofmt -w .

# Run the benchmark ledger (cmd/afdx-bench, described by BENCHMARK.json):
# each workload in a fresh process at its default seed and length,
# untraced. A run whose answers fail the correctness gate prints
# "correct": false and exits 1, which stops make.
bench:
	bash cmd/afdx-bench/run.sh --workload certify-cold --trace 0
	bash cmd/afdx-bench/run.sh --workload whatif-peek --trace 0
	bash cmd/afdx-bench/run.sh --workload whatif-fifo --trace 0

# Start the analysis daemon on the default loopback port (see README
# "Serving" for the curl walkthrough; Ctrl-C drains gracefully).
serve:
	go run ./cmd/afdx-serve -addr 127.0.0.1:8723

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
	go test -run '^$$' -fuzz '^FuzzServeApply$$' -fuzztime 10s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzServeUpload$$' -fuzztime 10s ./internal/serve
