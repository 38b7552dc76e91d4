#!/usr/bin/env bash
# Builds crowdserve and the benchmark from the sources of this checkout,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-65k --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache and per-run data stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/crowdserve ]; then
	echo "run.sh: no go.mod or cmd/crowdserve in $root; run from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/runs"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

commit=""
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
if [ -z "$commit" ]; then
	# Not a git checkout: name the code by a digest of its Go sources.
	commit="src-$(find cmd internal go.mod -type f \( -name '*.go' -o -name go.mod \) -print0 2>/dev/null |
		LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
fi

go build -o "$out/bin/crowdserve" ./cmd/crowdserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin/crowdserve" -work "$out/runs" -commit "$commit" "$@"
