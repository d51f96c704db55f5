#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout's
# root and runs it with the arguments given. The build cache, go's
# temporary files and its config directory are pointed there too, so
# nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local
	go build -o "$build/bench" .
)
exec "$build/bench" -outdir "$here/out" "$@"
