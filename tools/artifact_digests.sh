#!/bin/sh
# Print the sha256 of every .json and .csv artifact that a checkout's CLI
# writes for synth-env and the four benchmark workload inputs at seed 0:
#   bs-dist model, n=10,000 at (n_t, n_r, n_s) = (3, 4, 64);
#   bs-dist toggle, n=40,000 at (3, 4, 16);
#   optimize-x UNI MAX, optimizer seed 11, at (3, 4, 16);
#   validate-jacobian, 1,000 trials.
# Runs in a fresh temporary directory with relative paths, because
# config.json and summary.json record the --system path as given.  Run it on
# two checkouts and diff the outputs: a refactor must print the same lines.
#
#   tools/artifact_digests.sh <checkout>
set -eu
[ $# -eq 1 ] || { echo "usage: $0 <checkout>" >&2; exit 2; }
src=$(cd "$1" && pwd)/src
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
bsdof() { PYTHONPATH="$src" python3 -m bsdof.cli "$@" >/dev/null; }

bsdof synth-env --nt 3 --nr 4 --ns 64 --seed 0 --out-dir env64
bsdof synth-env --nt 3 --nr 4 --ns 16 --seed 0 --out-dir env16
bsdof bs-dist --system env64/system.json --mode model --n 10000 --seed 0 --out-dir mc-model
bsdof bs-dist --system env16/system.json --mode toggle --n 40000 --seed 0 --out-dir mc-toggle
bsdof optimize-x --system env16/system.json --constraint uni --direction max --seed 11 \
    --out-dir opt-uni
# exit 1 only reports a tolerance miss; its artifacts are still the result
bsdof validate-jacobian --trials 1000 --seed 0 --out-dir validate || [ $? -eq 1 ]
find . -name '*.json' -o -name '*.csv' | sort | xargs sha256sum
