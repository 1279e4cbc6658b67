#!/usr/bin/env bash
# Build the facile CLI and the benchmark from this checkout, then run
# the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload serve_hit --seed 1 --seconds 10 --trace 0
# Build output goes to stderr: the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "perfbench: not the root of a facile checkout: $(pwd)" >&2
  exit 2
fi
# keep every build artefact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/facile.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
