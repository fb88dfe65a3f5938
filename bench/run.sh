#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload tab9 --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (the Go build cache, temporary files, the binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local

# Build to a private name and rename, so concurrent runs never execute a
# half-written binary.
tmp=$(mktemp "$out/e2e.XXXXXX")
if ! (cd "$root/bench" && go build -o "$tmp" ./e2e); then
	rm -f "$tmp"
	echo "bench/run.sh: build failed" >&2
	exit 1
fi
mv -f "$tmp" "$out/e2e"
exec "$out/e2e" "$@"
