#!/usr/bin/env bash
# Builds the fvcd benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository
# root:
#
#   bash fvcdbench/run.sh --workload survey-grid --seed 1 --seconds 25 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) and the
# run's fvcd state stay under .bench_build in the current directory; the
# Go toolchain is kept offline.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off
(cd fvcdbench && go build -o "$build/fvcdbench" .)
exec "$build/fvcdbench" "$@"
