#!/usr/bin/env bash
# Builds the fastnet benchmark from the checkout it is started in and runs
# one workload. Run it from the repository root:
#
#   bash benchmark/run.sh --workload flood_jitter --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, temporary files and the Go config
# directory all live in .bench_build/ under the checkout, so nothing is
# written outside it.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/benchmark" && go build -o "$out/fastnet-bench" .)
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
# The digest of every Go source and module file identifies the code built,
# also in a checkout that is not a git repository.
source=$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
exec "$out/fastnet-bench" --commit "$commit" --source "$source" "$@"
