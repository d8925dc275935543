#!/usr/bin/env bash
# Builds tecore-server and the harness from source into .bench_build/ at
# the root of the checkout, then runs the harness with the given
# arguments. Go's build cache and temporary files are kept there too, so
# nothing is read or written outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=
(cd "$root" && go build -o "$out/tecore-server" ./cmd/tecore-server)
(cd "$here" && go build -o "$out/tecore-bench" .)
exec "$out/tecore-bench" -server "$out/tecore-server" "$@"
