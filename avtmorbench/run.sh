#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash avtmorbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout. Without the avtmor sources beside it the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "avtmorbench: no avtmor module at $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gotmp"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the build
# area too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/avtmorbench" && XDG_CONFIG_HOME="$build/config" go build -o "$build/avtmorbench" .)
cd "$root"
exec "$build/avtmorbench" "$@"
