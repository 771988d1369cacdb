#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes stays under .bench_build/ in the
# current directory.
set -euo pipefail
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go=go
if ! command -v go >/dev/null && [ -x /usr/local/go/bin/go ]; then
	go=/usr/local/go/bin/go
fi
"$go" -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --digests "$root/perfbench/digests.json" --spans-dir "$build/spans" "$@"
