#!/usr/bin/env bash
# Builds the hpfcg benchmark from the checkout's sources and runs it:
#
#   bash hpfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, span files, determinism
# fingerprints) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
# Build offline from the checkout alone: the module needs nothing but
# the repository (go.mod replaces hpfcg with ..) and the standard library.
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOPROXY=off
export GOTELEMETRY=off

go -C "$root/hpfbench" build -o "$out/hpfbench" .
exec "$out/hpfbench" "$@"
