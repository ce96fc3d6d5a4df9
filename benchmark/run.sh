#!/bin/sh
# Build the benchmark from source in this tree (without dune's shared
# cache, so nothing is written outside the tree) and run it with the
# given arguments. Run from the repository root, for example:
#   sh benchmark/run.sh --workload fig3_lfa --seed 1 --seconds 10 --trace 0
exec dune exec --root . --no-print-directory --display quiet --cache=disabled \
  benchmark/main.exe -- "$@"
