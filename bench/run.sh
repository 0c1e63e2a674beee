#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout
# this script sits in, wherever it is called from. Everything building and
# running leave behind (Go build cache, the binary, results, traces) stays
# under bench/out/, so two checkouts never share a byte and nothing is
# written to the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"
build="$here/out/build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
# The driver's checkout is not a git repository: the commit is a host fact
# for results.json when there is one, never a reason for the build to fail.
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
go -C bench build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/partree-bench" .
exec "$build/partree-bench" "$@"
