#!/usr/bin/env bash
# Builds prpartd and the servebench load generator from this checkout,
# then runs one benchmark workload:
#
#   bash servebench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build at the checkout root).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly
# With telemetry on or local, the go command starts a detached sidecar
# process that outlives the build; turning it off keeps the run's
# process tree closed.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
cd "$root/servebench"
go build -o "$build/bin/prpartd" prpart/cmd/prpartd
go build -o "$build/bin/servebench" .
exec "$build/bin/servebench" --prpartd "$build/bin/prpartd" --work "$build/work" --spans "$build/spans" "$@"
