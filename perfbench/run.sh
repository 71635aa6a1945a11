#!/usr/bin/env bash
# Build the end-to-end serve benchmark from source and run it:
#
#   bash perfbench/run.sh --workload corpus_mix --seed 1 --seconds 10 --trace 0
#
# Run from the root of a source checkout.  Build output goes to stderr;
# the benchmark's last stdout line is its JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a source checkout" >&2
  exit 2
fi

# keep dune's shared cache out of the picture: the build stays inside
# the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./perfbench/bench.exe ./perfbench/svc.exe ./perfbench/gen.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
