#!/usr/bin/env bash
# Builds perfbench/perf.exe from source in the current checkout and runs
# it with the given arguments. Run from the repository root, e.g.
#   bash perfbench/run.sh --workload splash --seed 42 --seconds 20 --trace 0
# --root pins dune to this directory, so a directory that holds only the
# benchmark fails to build instead of resolving to an enclosing project.
set -eu
exec dune exec --root "$PWD" --display quiet ./perfbench/perf.exe -- "$@"
