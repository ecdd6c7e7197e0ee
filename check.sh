#!/bin/sh
# check.sh — the repository's expanded verification gate.
#
# Runs, in order:
#   1. go build ./...        (tier-1: everything compiles)
#   2. gofmt -l .            (formatting; any listed file fails the gate)
#   3. go vet ./...          (static analysis of the Go code itself)
#   4. afdx-vet ./...        (determinism contract: DET001..DET006 over
#                             the whole tree; any unsuppressed finding
#                             fails the gate)
#   5. go test ./...         (tier-1: the full test suite)
#   6. go test -race ./...   (the suite again under the race detector)
#  6a. kernel benchmark      (BenchmarkAnalyzeIndustrial, one iteration:
#                             the trajectory kernel on the industrial
#                             configuration builds, runs and bounds
#                             every one of its 5,004 paths)
#  6b. benchmark module      (go vet + go test in cmd/afdx-bench, its own
#                             module, which ./... does not reach)
#   7. afdx-conformance      (short cross-engine differential campaign,
#                             deterministic seed, wall-time budgeted;
#                             every campaign also holds the trajectory
#                             run that shares the reference WCNC run's
#                             prefix bounds bitwise equal to private-
#                             prefix runs at 1 and N workers: parallel
#                             parity and repeatability)
#   8. second campaign       (30 configurations on a seed no other gate
#                             draws, every tier of the lattice)
#   9. flat hot-path smoke   (a third campaign on yet another seed,
#                             cross-checking the flattened trajectory
#                             hot path against the oracle's invariants)
#  10. served conformance    (afdx-serve -selfcheck: a seeded 20-delta
#                             script replayed through a live daemon over
#                             HTTP with the full observability stack on
#                             — structured JSON logs, request tracing,
#                             per-bound provenance — every answer
#                             re-derived from cold engine runs, zero
#                             mismatches required; plus a -served
#                             oracle campaign slice)
#  11. traced conformance    (same campaign with metrics + tracing on:
#                             verdicts must be identical — observability
#                             never participates in the computation —
#                             and the trace holds one span per engine
#                             run: no per-path or per-port span, and no
#                             simulator span under an exact search)
#  12. fuzz smoke            (fuzz-smoke.sh: every native fuzz target,
#                             found from the func Fuzz* declarations in
#                             the module's test files, for 5 s each)
#
# Usage: ./check.sh        (or: make check)
set -eu
cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files are not formatted:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== afdx-vet ./... (determinism contract)"
# The detcheck suite gates the source tree on the determinism contract
# (DET001..DET006): float accumulation over map ranges, wall clocks in
# engines, unsorted key slices, raw tolerance literals, per-item counter
# increments in parallel fan-outs, and unpolled unbounded loops. Only
# findings carrying a justified //detcheck:allow directive pass.
if ! go run ./cmd/afdx-vet ./...; then
	echo "check.sh: afdx-vet found determinism-contract violations." >&2
	echo "  Fix the reported sites, or suppress a provably order-independent" >&2
	echo "  one with '//detcheck:allow DET###: <justification>' on the line above." >&2
	exit 1
fi

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== trajectory kernel benchmark (one iteration)"
# BenchmarkAnalyzeIndustrial is the way to time the trajectory kernel
# alone (README, Scalability). One iteration keeps it compiling and
# running, so the harness cannot rot between measurements.
go test -run '^$' -bench BenchmarkAnalyzeIndustrial -benchtime 1x ./internal/trajectory

echo "== benchmark module (cmd/afdx-bench: go vet + go test)"
# cmd/afdx-bench is a separate Go module (it replaces afdx with the
# tree it sits in), so the ./... gates above never build it. Vet and
# test it here so an engine change that breaks the benchmark fails the
# gate instead of the next benchmark run. Nothing in the directory is
# written.
(cd cmd/afdx-bench && go vet . && go test .)

echo "== conformance oracle (short campaign, deterministic)"
go run ./cmd/afdx-conformance -n 150 -seed 1 -budget 45s -quiet

echo "== second conformance campaign (30 configs, disjoint seed)"
# The full lattice again on a seed the other gates never draw, so the
# campaigns cover disjoint configuration draws.
go run ./cmd/afdx-conformance -n 30 -seed 5 -quiet

echo "== flat hot-path smoke (30-config conformance slice)"
# A conformance slice on a seed the gates above never draw, aimed at the
# flattened trajectory hot path: the oracle cross-checks the optimized
# engine against network calculus and the invariant lattice on every
# configuration, so an indexing or scratch-reuse bug in the flat engine
# surfaces here even if the unit corpus misses it.
go run ./cmd/afdx-conformance -n 30 -seed 11 -quiet

echo "== served conformance (daemon vs cold bit-identity, observability on)"
# The serving smoke: generate a mid-size configuration, start afdx-serve
# on a loopback port, replay a seeded 20-delta script (peeks and
# commits) over real HTTP, and re-derive every served answer from cold
# engine runs at worker counts 1 and N. Any bound differing bitwise
# from its cold anchor fails the gate. The daemon runs with the full
# operational stack enabled — structured JSON request logs, per-request
# tracing into the retention ring, per-bound provenance — so this gate
# also proves observation never moves a served bound off its cold
# anchor, and that the machine-readable stdout stays pure with logging
# on. A short -served oracle campaign then repeats the contract across
# a configuration family.
servedir=$(mktemp -d)
trap 'rm -rf "$servedir"' EXIT
go run ./cmd/afdx-gen -seed 7 -quiet > "$servedir/net.json"
go run ./cmd/afdx-serve -selfcheck -config "$servedir/net.json" \
	-replay-seed 13 -replay-steps 20 \
	-log "$servedir/serve.log" -logjson -trace-ring 64 > "$servedir/selfcheck.json"
if ! grep -q '"mismatches": 0' "$servedir/selfcheck.json"; then
	echo "check.sh: served bounds diverged from cold anchors:" >&2
	cat "$servedir/selfcheck.json" >&2
	exit 1
fi
if ! grep -q '"msg":"request"' "$servedir/serve.log"; then
	echo "check.sh: served selfcheck produced no structured request log records" >&2
	exit 1
fi
go run ./cmd/afdx-conformance -n 10 -seed 13 -served -quiet

echo "== traced conformance (observability non-interference)"
# Run the same 50-config campaign plain and with the full observability
# stack attached; after stripping the wall-time fields the JSON reports
# must be byte-identical and report zero violations. The trace must
# grow with the campaign's configurations, never with the size of the
# networks analysed: a path:, port: or exact/sim span fails the gate.
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir" "$servedir"' EXIT
go run ./cmd/afdx-conformance -n 50 -seed 7 -json -quiet > "$obsdir/plain.json"
go run ./cmd/afdx-conformance -n 50 -seed 7 -json -quiet \
	-metrics "$obsdir/metrics.json" -tracefile "$obsdir/trace.json" > "$obsdir/traced.json"
grep -vE '"(elapsedSec|configsPerSec)"' "$obsdir/plain.json" > "$obsdir/plain.stable.json"
grep -vE '"(elapsedSec|configsPerSec)"' "$obsdir/traced.json" > "$obsdir/traced.stable.json"
if ! diff -u "$obsdir/plain.stable.json" "$obsdir/traced.stable.json"; then
	echo "check.sh: traced and untraced conformance verdicts differ" >&2
	exit 1
fi
if ! grep -q '"violations": 0' "$obsdir/plain.json"; then
	echo "check.sh: traced-conformance smoke campaign found violations" >&2
	exit 1
fi
if grep -qE '"name": "(path|port):|"path": "[^"]*/exact/sim"' "$obsdir/trace.json"; then
	echo "check.sh: the traced campaign recorded per-path, per-port or per-evaluation spans" >&2
	exit 1
fi

echo "== fuzz smoke (5s per target)"
./fuzz-smoke.sh 5s

echo "check.sh: all gates passed"
