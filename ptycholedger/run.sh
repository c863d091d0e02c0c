#!/usr/bin/env bash
# run.sh — build ptychoserve, ptychoworker and the ptycholedger
# benchmark from this checkout, then run one workload:
#
#   bash ptycholedger/run.sh --workload recon-local --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binaries, server state) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ptychoserve" ]; then
    echo "run.sh: run from the ptychopath repository root (no go.mod or cmd/ptychoserve here)" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
# Keep the go command's cache, temporary files, module path and config
# (its local telemetry counters included) inside the checkout, and
# never let it fetch a toolchain or a module. The build is pure Go:
# with cgo off no C compiler runs, and nothing depends on one being
# installed. TMPDIR also holds any temporary file the servers make.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOENV=off GOWORK=off GO111MODULE=on CGO_ENABLED=0

go build -buildvcs=false -o "$build/bin/" ./cmd/ptychoserve ./cmd/ptychoworker >&2
(cd "$here" && go build -buildvcs=false -o "$build/bin/ptycholedger" .) >&2

work="$build/run-$$"
exec "$build/bin/ptycholedger" -bin "$build/bin" -work "$work" "$@"
