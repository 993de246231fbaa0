#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload sweep-freeze-i2 --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the run's temporary files all live
# under .bench_build/ in the current directory; nothing is written
# elsewhere and nothing is downloaded.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C benchmark -o "$out/tamebench" .
exec "$out/tamebench" "$@"
