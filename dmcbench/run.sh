#!/usr/bin/env bash
# Builds cmd/dmcd and the benchmark from source, then runs the benchmark:
#
#   bash dmcbench/run.sh --workload fleet-cg --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# temporary state dirs and span dumps all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/dmcd ]]; then
	echo "dmcbench: $root is not a dmc checkout (no go.mod or cmd/dmcd)" >&2
	exit 2
fi

work="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$work/bin" "$work/tmp" "$work/gocache" "$work/config" "$work/gopath"
work="$(cd "$work" && pwd)"
# Keep every write inside the checkout: the build cache, temporary files,
# and the go command's own config and telemetry (under XDG_CONFIG_HOME).
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config" GOPATH="$work/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$work/bin/dmcd" ./cmd/dmcd
go build -o "$work/bin/dmcbench" ./dmcbench
exec "$work/bin/dmcbench" -dmcd "$work/bin/dmcd" -out "$work" "$@"
