#!/bin/sh
# CI entry point: build, run the full tier-1 suite, then a reduced-seed
# chaos soak as a serving-layer smoke guard and a short answer-checked run
# of each benchmark workload. Every phase is wall-clock capped so a wedged
# daemon fails the run instead of hanging CI.
#
#   ./ci.sh            # what CI runs
#   CHAOS_SEEDS=200 ./ci.sh   # the full soak (what FIG=chaos defaults to)
set -eu
cd "$(dirname "$0")"

echo "== build =="
timeout 600 dune build

echo "== tests =="
timeout 900 dune runtest

echo "== chaos smoke (reduced seeds) =="
CHAOS_SEEDS="${CHAOS_SEEDS:-30}" FIG=chaos timeout 30 dune exec bench/main.exe

# Every daemon reply is checked against the Evaluator oracle, so a kernel
# change that moves an answer fails here. Timing is printed, not gated.
echo "== benchmark smoke (answer-checked, 2 s per workload) =="
for w in sweep-warm cold-inline deadline-small; do
  timeout 180 bash wfcbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0
done

echo "ci: all green"
