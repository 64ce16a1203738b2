#!/usr/bin/env bash
# Builds the programs under test and perfbench itself from this
# checkout, then runs perfbench with the given arguments. Every build
# artifact and cache stays under .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$out/bin/" ./cmd/spmmsim ./cmd/hottilesd) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
cd "$root"
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
