#!/bin/sh
# fuzz-smoke.sh — run every native fuzz target of the module for the
# given time each. The targets are read from the source: each
# `func Fuzz*` in a package's test files runs in that package, so a
# new target needs no edit here or in its callers.
#
# Usage: ./fuzz-smoke.sh <fuzztime>
#   check.sh runs it at 5s per target, `make fuzz-smoke` at 10s.
set -eu
cd "$(dirname "$0")"
fuzztime=${1:?usage: ./fuzz-smoke.sh <fuzztime, e.g. 5s>}

go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do
	grep -ho '^func Fuzz[A-Za-z0-9_]*' "$dir"/*_test.go 2>/dev/null | sed 's/^func //' | while read -r target; do
		echo "-- $target ($pkg, $fuzztime)"
		go test -run '^$' -fuzz "^$target\$" -fuzztime "$fuzztime" "$pkg"
	done
done
