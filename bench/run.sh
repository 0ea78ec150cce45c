#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every file it reads or
# writes, the Go build cache included, stays inside the checkout.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh -selfcheck
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .) >&2
if [ -e "$root/.git" ]; then
	BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
fi
export BENCH_COMMIT="${BENCH_COMMIT:-unknown}"
cd "$root"
exec "$build/bench" "$@"
