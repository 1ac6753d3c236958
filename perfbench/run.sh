#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#   bash perfbench/run.sh --workload fig9 --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build and run artefact stays under
# .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# The go command's cache, temporary files, config and telemetry stay here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
    GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
