"""Effective degrees of freedom of load-modulated backscatter MIMO channels."""

import os

# Artifacts must not depend on the BLAS thread count: threaded OpenBLAS moves
# the largest singular value of synth-env's raw draw by an ulp from N = 68 up,
# and the package's worker pool is its only parallelism.  The BLAS libraries
# read these when numpy first loads them; once numpy is loaded they are inert.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from .environment import EnvironmentSpec, environment_ladder, synth_environment, zero_mc
from .errors import (
    BsdofError,
    DegenerateInputError,
    InconsistentStateError,
    OptimizationFailedError,
    OracleError,
    PartitionError,
    PassivityError,
    SingularityError,
    UnsupportedOperationError,
)
from .fd import (
    ChannelMap,
    complex_step_jacobian,
    discrete_toggle_jacobian,
    linear_map_fd_jacobian,
)
from .loads import LoadConstraint, sample_loads, toggle
from .metrics import (
    ParticipationResult,
    benchmark_eemdof,
    bs_eemdof_point,
    column_space_residual,
    participation_from_singular_values,
    participation_number,
)
from .network import (
    Jacobian,
    ScatteringBlocks,
    ScatteringSystem,
    closed_form_jacobian,
    coupling_resolvent,
    end_to_end_channel,
    extract_blocks,
    load_system,
    save_system,
    woodbury_channel_update,
)
from .optimize import (
    OptimizationConfig,
    OptimizationResult,
    embed,
    mean_dof_objective,
    optimize_illumination,
    project,
    sample_load_set,
)
from .sampling import (
    DofDistribution,
    IlluminationPolicy,
    histogram,
    sample_distribution,
    sample_random_illumination,
    summarize,
)

__version__ = "0.1.0"
