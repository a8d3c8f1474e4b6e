#!/usr/bin/env bash
# Builds qaserve and the qaload generator from this checkout's sources
# into .bench_build/, then runs one benchmark measurement:
#
#   bash qabench/run.sh --workload qald-repeat --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binaries, data dirs, span files) stays under
# .bench_build/. The last line of standard output is the result JSON.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# Keep the go command's caches, temp files and config (telemetry), and
# any temp file the benchmark or qaserve makes, here.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# A non-login shell may lack the Go install directory on its PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

go build -o "$out/bin/qaserve" ./cmd/qaserve >&2
go -C qabench build -o "$out/bin/qaload" ./cmd/qaload >&2
exec "$out/bin/qaload" -qaserve "$out/bin/qaserve" -workdir "$out" "$@"
