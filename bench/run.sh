#!/bin/sh
# Builds the benchmark into the checkout's scratch directory and replaces
# this shell with it, so the process the caller started — and may signal —
# is the harness itself, whose SIGINT/SIGTERM handler reaps the daemon
# child. (Under `go run` the harness would be a grandchild the signal
# never reaches.) Arguments are passed through; see README.md.
set -e
here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
root=$(dirname -- "$here")
mkdir -p "$root/.bench_build"
# The benchmark reads and writes only inside its checkout: unless the
# caller chose a build cache, keep Go's there too (the first build in a
# fresh checkout then compiles the standard library, about 25 s).
: "${GOCACHE:=$root/.bench_build/gocache}"
export GOCACHE
(cd "$here" && go build -o "$root/.bench_build/bench" .)
exec "$root/.bench_build/bench" "$@"
