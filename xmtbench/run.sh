#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash xmtbench/run.sh --workload toolchain --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build) inside the checkout.
set -eu
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home" "$build/tmp"
export TMPDIR="$build/tmp"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
	go -C "$root/xmtbench" build -o "$build/xmtbench" .
exec "$build/xmtbench" --out "$build/xmtbench-out" "$@"
