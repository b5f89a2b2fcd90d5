#!/usr/bin/env bash
# Build the wfc daemon and the benchmark from source, then run one
# benchmark measurement. Run from the repository root:
#
#   bash wfcbench/run.sh --workload sweep-warm --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -u
if [ ! -f dune-project ] || [ ! -f bin/wfc.ml ] || [ ! -d lib/serve ]; then
  echo "wfcbench: run from the root of a wfc checkout (dune-project, bin/wfc.ml, lib/serve)" >&2
  exit 2
fi
if ! dune build --root . ./bin/wfc.exe ./wfcbench/main.exe 1>&2; then
  echo "wfcbench: build failed" >&2
  exit 2
fi
exec ./_build/default/wfcbench/main.exe --wfc ./_build/default/bin/wfc.exe "$@"
