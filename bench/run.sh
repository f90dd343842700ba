#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the harness and gbkmvd from source into
# .bench_build/ at the root of the checkout, then runs the harness with the
# driver's arguments. Everything the Go toolchain and the run write — build
# cache, temp files, binaries, data directories, traces — stays under
# .bench_build/, which the root .gitignore names.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/bin"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root/bench"
go build -o "$build/bin/bench" .
go build -o "$build/bin/gbkmvd" gbkmv/cmd/gbkmvd
cd "$root"
exec "$build/bin/bench" -gbkmvd "$build/bin/gbkmvd" -work "$build/run" "$@"
