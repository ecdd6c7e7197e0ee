#!/usr/bin/env bash
# Builds afdx-bench from the source tree it sits in and runs it with the
# given arguments. Build outputs and the Go build cache stay under
# .bench_build/ at the repository root, and the toolchain is kept
# offline: the benchmark needs nothing outside the repository.
#
#   bash cmd/afdx-bench/run.sh --workload whatif-peek --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/cmd/afdx-bench" && go build -o "$out/afdx-bench" .) >&2
cd "$root"
exec "$out/afdx-bench" "$@"
