#!/usr/bin/env bash
# Builds perfbench and the stserve/stcampaign binaries it
# drives from this source tree, then runs it:
#
#   bash perfbench/run.sh --workload cold-paper --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binaries, result
# caches, spans, profiles) stays under .bench_build/ at the root of the
# tree, and the toolchain never reaches the network.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$PWD/.bench_build
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/" . silenttracker/cmd/stserve silenttracker/cmd/stcampaign) >&2
exec "$out/bin/perfbench" --bin "$out/bin" --work "$out" "$@"
