#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash perfbench/run.sh --workload serve|infer|train --seed N --seconds S --trace 0|1
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: needs the repository sources next to it (dune-project, lib/)" >&2
  exit 2
fi
# no shared build cache: the build reads and writes only this directory tree
dune build --root . --display quiet --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
