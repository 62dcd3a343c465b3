#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload enum-n220 --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a polyise checkout. Everything the build writes
# (the Go build cache, its temporary files and the binary) goes under
# .bench_build in that checkout. Build output goes to standard error, so
# the last line of standard output stays the benchmark's JSON result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
