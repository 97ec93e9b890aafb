#!/bin/sh
# The benchmark command.  From the root of a checkout:
#
#   sh benchmark/run.sh --workload sim-256 --seed 1 --seconds 20 --trace 0
#
# builds benchmark/main.exe and the libraries it links from the checkout's
# sources, then runs it with the given arguments.  The dune cache is off, so
# the build reads and writes nothing outside the checkout; build output goes
# to stderr, so stdout carries only the benchmark's report.
set -e
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
