#!/usr/bin/env bash
# Builds the serve-level benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload fleet3-zipf --seed 1 --seconds 45 --trace 0
#
# Every build product, cache and temporary file goes under .bench_build/ at
# the checkout root, so the run reads and writes nothing outside the
# checkout. The first run compiles the module (a minute or two); later runs
# reuse the cache. A checkout without the thermosc module fails the build and
# exits nonzero before anything is measured.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
