#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache, span dumps) go under
# $CARGO_TARGET_DIR, default .bench_build, inside the repository. The build
# needs the repository's own module (perfbench/go.mod replaces it with ..), so
# it fails, and the command exits non-zero, where only perfbench/ is present.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"

# Keep every file the go command writes (build cache, module cache,
# telemetry under the user config dir) inside the target directory, and never
# fetch a toolchain or module.
export GOCACHE="$target/gocache" GOPATH="$target/gopath" XDG_CONFIG_HOME="$target/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$target/perfbench-bin" .)

commit=unknown
if [ -e .git ]; then
	commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_COMMIT="$commit"
exec "$target/perfbench-bin" --root "$root" --out "$target/perfbench" "$@"
