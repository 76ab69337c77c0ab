"""Effective degrees of freedom of load-modulated backscatter MIMO channels.

Import each name from its module (network, metrics, fd, loads, streams,
sampling, optimize, environment, errors, cli); the package exports none.
"""

import os

# Artifacts must not depend on the BLAS thread count: threaded OpenBLAS moves
# the largest singular value of synth-env's raw draw by an ulp from N = 68 up,
# and the package's worker pool is its only parallelism.  The BLAS libraries
# read these when numpy first loads them; once numpy is loaded they are inert.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

__version__ = "0.1.0"
