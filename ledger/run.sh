#!/bin/sh
# Builds the ledger benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   sh ledger/run.sh --workload W --seed N --seconds S --trace 0|1
#   sh ledger/run.sh ledger | compare A.json B.json | smoke   (see README.md)
#
# Run it from the checkout root.  The build, its caches and temporary
# files, and everything the benchmark writes stay under .bench_build/.
build=.bench_build
mkdir -p "$build/tmp" || exit 1
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$PWD/$build/cache"
export TMPDIR="$PWD/$build/tmp"
dune build --root . --build-dir "$PWD/$build/dune" ./ledger/ledger.exe 1>&2 || exit 1
exec "$build/dune/default/ledger/ledger.exe" "$@"
