#!/usr/bin/env bash
# Builds cobrad and the load generator from this checkout, then runs the
# cobrad end-to-end benchmark. Run it from the repository root:
#
#   bash cobradbench/run.sh --workload small-ctr --seed 1 --seconds 10 --trace 0
#
# Builds, caches and the traced run's JSON all stay under .bench_build/.
set -euo pipefail
# Go's default install location, for environments whose PATH lacks it.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
root=$PWD
bench=$(cd "$(dirname "$0")" && pwd)
out=$root/.bench_build/cobradbench
mkdir -p "$out/home" "$out/tmp"
# The Go toolchain writes caches, telemetry and temporary files under
# HOME and TMPDIR by default; keep them in the checkout, and offline.
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root" -o "$out/cobrad" ./cmd/cobrad >&2
go build -C "$bench" -o "$out/cobradbench" . >&2
exec "$out/cobradbench" -cobrad "$out/cobrad" -out "$out" "$@"
