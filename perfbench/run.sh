#!/bin/sh
# Build (release profile) and run the benchmark from the repository root:
#   sh perfbench/run.sh --workload sst-serve --seed 1 --seconds 12 --trace 0
# A failed build exits non-zero before anything is printed on stdout.
exec dune exec --root . --profile release --display quiet ./perfbench/main.exe -- "$@"
