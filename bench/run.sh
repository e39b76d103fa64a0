#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the checkout and
# runs it from the checkout root. Everything the build writes (Go build cache,
# temp files, the binary) stays under .bench_build/, so the benchmark reads
# and writes only inside its checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/sacbench" .)
cd "$root"
exec "$out/sacbench" "$@"
