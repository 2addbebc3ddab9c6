#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload community --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, temporary data directories, trace files)
# goes under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root; the benchmark needs the nucleus sources" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"

# Keep the toolchain offline and inside the checkout.
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GONOSUMDB= GOSUMDB=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
