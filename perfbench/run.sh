#!/usr/bin/env bash
# Build the benchmark from the checkout's sources and run it.  Must be
# started from the root of a full checkout:
#   bash perfbench/run.sh --workload text-steady --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-test
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full checkout (dune-project and lib/ not found)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
else
  dune=(opam exec -- dune)
fi
"${dune[@]}" build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
