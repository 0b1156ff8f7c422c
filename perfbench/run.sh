#!/usr/bin/env bash
# Builds matchd and the benchmark from this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload match-small --seed 1 --seconds 12 --trace 0
#
# Everything the build and the runs write stays under .bench_build at the
# checkout's root: Go's build cache, its config and telemetry directory,
# the binaries, matchd logs and trace files.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/matchd" ]; then
	echo "perfbench: $root holds no matchd sources to build" >&2
	exit 1
fi
mkdir -p "$build/bin" "$build/runs"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
# Telemetry off: in any other mode the go command forks a detached upload
# process that outlives the build.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
# Each build runs as a job in its own process group, out of reach of a stop
# signal sent to this script's group. On a stop signal the script lets the
# running build finish, so the go command reaps its compilers, and exits: a
# go command interrupted mid-build leaves its compilers unwaited for.
set -m
job=
trap '[ -z "$job" ] || wait "$job"; exit 143' INT TERM HUP
build() {
	(cd "$1" && go build -o "$2" "$3") >&2 &
	job=$!
	wait "$job"
	job=
}
build "$root" "$build/bin/matchd" ./cmd/matchd
build "$root/perfbench" "$build/bin/perfbench" .
trap - INT TERM HUP
exec "$build/bin/perfbench" -matchd "$build/bin/matchd" -workdir "$build/runs" "$@"
