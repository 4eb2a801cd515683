#!/usr/bin/env bash
# Builds the benchmark from source in the checkout it is run from, then
# measures one workload and prints its result as the last line:
#
#   bash bench/e2e/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Run it from the root of the repository.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin || ! -d test/golden ]]; then
  echo "run.sh: run from the root of a full checkout of the repository" >&2
  exit 2
fi

dune build --root . --build-dir _build --display quiet \
  bench/e2e/fbufs_bench.exe bin/fbufs_cli.exe >&2

exec _build/default/bench/e2e/fbufs_bench.exe one \
  --cli _build/default/bin/fbufs_cli.exe --golden test/golden \
  --tmp _build/fbufs_bench "$@"
