#!/bin/sh
# Build dartperf from this checkout and run one workload of the benchmark:
#
#   sh bench/perf/run.sh --workload W --seed N --seconds T --trace 0|1
#
# Build output goes to .bench_build and dune's shared cache is off, so
# nothing is written outside the checkout. The last line of stdout is the
# result object; build logs go to stderr. A checkout without the library
# sources fails the build and exits non-zero without printing a result.
set -eu
cd "$(dirname "$0")/../.."
dune build --root . --build-dir .bench_build --cache=disabled ./bench/perf/dartperf.exe >&2
exec .bench_build/default/bench/perf/dartperf.exe bench "$@"
