#!/bin/sh
# The benchmark's command (BENCHMARK.json): build bench/ from source into
# .bench_build/ inside the checkout, then run it with the driver's flags.
# The Go build cache is kept there too, so nothing outside the checkout
# is written. Run from the module root.
set -eu
out=$PWD/.bench_build
mkdir -p "$out"
GOCACHE=$out/gocache GOFLAGS=-buildvcs=false go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
