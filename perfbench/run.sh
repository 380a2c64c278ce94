#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tables-small --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS="-mod=mod -buildvcs=false"
if [[ -z "${PERFBENCH_COMMIT:-}" && -d .git ]]; then
	PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
	export PERFBENCH_COMMIT
fi
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
