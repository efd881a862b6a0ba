#!/usr/bin/env bash
# Builds the DeTA round benchmark from source and runs it. Run it from the
# repository root, e.g.
#
#   bash perfbench/run.sh --workload shuffle-mem --seed 1 --seconds 35 --trace 0
#
# The binary, the Go build cache, journal state and trace files all stay
# under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# Everything the go command writes (build cache, temporary files, module
# cache, telemetry counters under the user config directory) stays under
# .bench_build/, and nothing is fetched: the module has no outside
# dependencies.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOPROXY=off \
	GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
