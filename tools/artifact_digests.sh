#!/bin/sh
# Print the sha256 of every .json and .csv artifact that a checkout's CLI
# writes for synth-env and the four benchmark workload inputs at seed 0:
#   bs-dist model, n=10,000 at (n_t, n_r, n_s) = (3, 4, 64);
#   bs-dist toggle, n=40,000 at (3, 4, 16);
#   optimize-x UNI MAX, optimizer seed 11, at (3, 4, 16);
#   validate-jacobian, 1,000 trials;
# plus validate-jacobian at --step 5e-7 (300 trials, seed 7), which gates the
# step's path from the command line to the probe,
# bs-dist under the FIXED policy (its default illumination, UNI loads,
# n=3,000 at (3, 4, 16), seed 2), bs-dist toggle with the custom PIN states
# on 0.5+0.25j and off -0.5 (n=2,000 at (3, 4, 16), seed 3), optimize-x PIN
# MAX through the certified two-state precompute (optimizer seed 5, 3 starts,
# 600 objective samples, final n=2,000 at (3, 4, 16)), and three runs on an
# 8-load system whose flat rank-1 coupling resonates when every load is ON
# (tests/synthetic.py::flat_resonant_rank2_system), so it is uncertified:
#   bs-dist model with PM loads, n=2,000, seed 0 (5 redraws);
#   optimize-x with PM loads, 2 starts, 400 objective samples, final n=2,000,
#   seed 0 (load-set members 6, 30 and 174 redrawn, 5 final redraws);
#   bs-dist toggle with PIN loads, n=2,000, seed 0, through the gated
#   toggle factors (0 redraws).
# The resonant system file is built by the checkout's own save_system.
# Runs in a fresh temporary directory with relative paths, because
# config.json and summary.json record the --system path as given.  Run it on
# two checkouts and diff the outputs: a refactor must print the same 51 lines.
# With --keep DIR the artifacts are written to DIR, which must be empty or
# absent, and kept there; tools/artifact_diff.py compares two such trees
# number by number.
#
#   tools/artifact_digests.sh [--keep DIR] <checkout>
set -eu
usage() { echo "usage: $0 [--keep DIR] <checkout>" >&2; exit 2; }
keep=
if [ "${1-}" = --keep ]; then
    [ $# -ge 2 ] || usage
    keep=$2
    shift 2
fi
[ $# -eq 1 ] || usage
src=$(cd "$1" && pwd)/src
if [ -n "$keep" ]; then
    mkdir -p "$keep"
    [ -z "$(ls -A "$keep")" ] || { echo "error: $keep is not empty" >&2; exit 2; }
    work=$(cd "$keep" && pwd)
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
cd "$work"
bsdof() { PYTHONPATH="$src" python3 -m bsdof.cli "$@" >/dev/null; }

bsdof synth-env --nt 3 --nr 4 --ns 64 --seed 0 --out-dir env64
bsdof synth-env --nt 3 --nr 4 --ns 16 --seed 0 --out-dir env16
bsdof bs-dist --system env64/system.json --mode model --n 10000 --seed 0 --out-dir mc-model
bsdof bs-dist --system env16/system.json --mode toggle --n 40000 --seed 0 --out-dir mc-toggle
bsdof bs-dist --system env16/system.json --policy fixed --constraint uni --n 3000 --seed 2 \
    --out-dir mc-fixed
bsdof bs-dist --system env16/system.json --mode toggle --constraint pin --on=0.5,0.25 \
    --off=-0.5 --n 2000 --seed 3 --out-dir mc-toggle-custom
bsdof optimize-x --system env16/system.json --constraint uni --direction max --seed 11 \
    --out-dir opt-uni
bsdof optimize-x --system env16/system.json --constraint pin --direction max --seed 5 \
    --starts 3 --objective-samples 600 --final-n 2000 --out-dir opt-pin
# exit 1 only reports a tolerance miss; its artifacts are still the result
bsdof validate-jacobian --trials 1000 --seed 0 --out-dir validate || [ $? -eq 1 ]
bsdof validate-jacobian --trials 300 --seed 7 --step 5e-7 --out-dir validate-step || [ $? -eq 1 ]
PYTHONPATH="$src" python3 - <<'PY'
import math

import numpy as np
from bsdof.network import ScatteringSystem, save_system

u = np.ones(8) / math.sqrt(8.0)
rows = np.zeros((2, 8))
rows[0, :2] = rows[1, 2:4] = [1.0, -1.0]
matrix = np.zeros((11, 11), dtype=complex)
tx, rx, bs = (0,), (1, 2), tuple(range(3, 11))
matrix[np.ix_(bs, tx)] = 0.25 * (rows[0] + rows[1])[:, None]
matrix[np.ix_(rx, bs)] = np.diag([0.3, 0.4]) @ rows / math.sqrt(2.0)
matrix[np.ix_(bs, bs)] = (1.0 - 1e-13) * np.outer(u, u)
save_system(ScatteringSystem(11, matrix, tx, rx, bs), "resonant.json")
PY
bsdof bs-dist --system resonant.json --mode model --constraint pm --n 2000 --seed 0 \
    --out-dir mc-redraw
bsdof optimize-x --system resonant.json --constraint pm --starts 2 --objective-samples 400 \
    --final-n 2000 --seed 0 --out-dir opt-redraw
bsdof bs-dist --system resonant.json --mode toggle --constraint pin --n 2000 --seed 0 \
    --out-dir mc-toggle-gated
find . -name '*.json' -o -name '*.csv' | sort | xargs sha256sum
