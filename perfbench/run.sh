#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload qr-msc144 --seed 1 --seconds 32 --trace 0
#
# Run from the repository root. Build outputs, the Go build and telemetry
# caches, temporary files, seeded inputs, result sets and traces all stay
# under .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOENV=off
(
  cd perfbench
  go build -o "$out/perfbench" .
  go build -o "$out/tracevet" repro/cmd/tracevet
) >&2
commit=none
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi
exec "$out/perfbench" -root "$root" -work "$out" -commit "$commit" \
  -tracevet "$out/tracevet" "$@"
