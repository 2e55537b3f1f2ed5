#!/usr/bin/env bash
# Builds spurbench from this checkout and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/spurbench/run.sh --workload table41-exact --seed 1 --seconds 25 --trace 0
#   bash cmd/spurbench/run.sh agree cmd/spurbench/results/run1 cmd/spurbench/results/run2
#
# The Go build cache, the Go configuration and telemetry directory, the
# binary and every temporary file stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout. Outside a full checkout the build fails
# and so does this script.
set -euo pipefail
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C cmd/spurbench build -o "$build/spurbench" .
exec "$build/spurbench" "$@"
