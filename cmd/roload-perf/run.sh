#!/usr/bin/env bash
# Builds roload-perf from source and runs it with the given arguments.
# Run from the repository root: every build and run artifact (Go build
# cache, binary, temporary files, fleet stores, logs, traces) stays
# under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local

go -C cmd/roload-perf build -o "$out/bin/roload-perf" .
exec "$out/bin/roload-perf" "$@"
