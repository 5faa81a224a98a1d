#!/usr/bin/env bash
# Build the benchmark and the pbqp_serve daemon from source, then run one
# workload.  Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_zipf --seed 1 --seconds 20 --trace 0
#
# The build goes to .bench_build, with dune's shared cache off so that
# nothing is written outside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet \
  ./perfbench/perfbench.exe ./bin/pbqp_serve.exe >&2
exec .bench_build/default/perfbench/perfbench.exe "$@"
