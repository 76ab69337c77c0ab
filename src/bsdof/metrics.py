"""Effective degree-of-freedom metrics built on the singular spectrum.

The participation number of a matrix with singular values sigma_i,

    M = (sum sigma_i^2)^2 / sum sigma_i^4,

counts how many singular values carry comparable weight: it is 1 for a
rank-1 matrix and reaches the dimensional cap N~ = min(rows, cols) exactly
when all N~ singular values are equal and nonzero.  Applied to the
end-to-end channel it gives the conventional MIMO DOF count; applied to the
load-to-output Jacobian it gives the local DOF count of load modulation.

Stacks of Jacobians are reduced without an SVD per matrix through the Gram
form M = ||J||_F^4 / ||J J^H||_F^2, which equals the singular-value form
identically (sum sigma^2 = tr J J^H and sum sigma^4 = ||J J^H||_F^2).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .network import ScatteringBlocks, closed_form_jacobian, frobenius_norm

# Spectra whose largest singular value is at or below this are treated as zero.
ZERO_SPECTRUM_FLOOR = 1e-300


@dataclass
class ParticipationResult:
    """Participation number plus the spectrum it came from."""

    m: float
    singular_values: np.ndarray
    n_tilde: int


def participation_from_singular_values(sigma) -> ParticipationResult:
    """Participation number of an explicit singular spectrum.

    Tiny singular values are kept: they contribute negligibly to both sums
    and truncating them would bias M.  The spectrum is normalized by its
    largest value first, which makes the ratio scale-invariant and immune to
    overflow.  N~ is the spectrum's length, min(rows, cols) of its matrix.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if np.any(sigma < 0):
        raise ValueError("singular values must be nonnegative")
    top = float(sigma.max(initial=0.0))
    if top <= ZERO_SPECTRUM_FLOOR:
        raise DegenerateInputError("all singular values are zero; participation undefined")
    s2 = (sigma / top) ** 2
    m = float(s2.sum() ** 2 / (s2 @ s2))
    return ParticipationResult(m=m, singular_values=sigma, n_tilde=sigma.size)


def participation_number(matrix: np.ndarray) -> ParticipationResult:
    """Participation number of a matrix via its full SVD."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return participation_from_singular_values(sigma)


def participation_from_jacobians(jac: np.ndarray, valid=True) -> np.ndarray:
    """Participation numbers of a stack (..., rows, cols) through the Gram form.

    Raises DegenerateInputError for a zero Jacobian where valid (a boolean
    mask over the stack) holds; entries outside valid are meaningless.
    """
    trace = (np.abs(jac) ** 2).sum(axis=(-2, -1))
    if np.any((trace == 0.0) & valid):
        raise DegenerateInputError("zero Jacobian; participation undefined")
    gram = jac @ jac.conj().swapaxes(-1, -2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return trace * trace / (np.abs(gram) ** 2).sum(axis=(-2, -1))


def benchmark_eemdof(blocks: ScatteringBlocks) -> ParticipationResult:
    """Upper-bound DOF benchmark: participation of the rx-by-bs coupling block.

    Every load-modulation Jacobian lives in the column space of s_rs, so its
    participation number is the natural ceiling for the point metric.
    """
    return participation_number(blocks.s_rs)


def bs_eemdof_point(blocks: ScatteringBlocks, r0: np.ndarray, x: np.ndarray) -> ParticipationResult:
    """Backscatter DOF count at one operating point (r0, x)."""
    return participation_from_singular_values(closed_form_jacobian(blocks, r0, x).singular_values)


def column_space_residual(jac: np.ndarray, s_rs: np.ndarray) -> float | np.ndarray:
    """Relative Frobenius mass of a Jacobian outside the column space of s_rs.

    The projector is built from the left singular vectors of s_rs whose
    singular values exceed 1e-12 of the largest.  Always in [0, 1]; zero (to
    rounding) whenever the containment J = S_RS B holds.  Stacks of
    Jacobians and of s_rs (..., rows, cols) give one residual per system,
    each with its own rank; a single pair gives a float.
    """
    matrix = np.asarray(jac, dtype=complex)
    norm = frobenius_norm(matrix)
    if np.any(norm == 0.0):
        raise DegenerateInputError("zero Jacobian has no defined residual")
    u, sigma, _ = np.linalg.svd(np.asarray(s_rs, dtype=complex))
    top = sigma.max(axis=-1, initial=0.0, keepdims=True)
    rank = np.count_nonzero(sigma > 1e-12 * top, axis=-1)[..., None, None]
    width = rank.max()
    # a lower-rank system's surplus columns are exact zeros and project nothing
    basis = np.where(np.arange(width) < rank, u[..., :width], 0.0)
    residual = matrix - basis @ (basis.conj().swapaxes(-1, -2) @ matrix)
    ratio = frobenius_norm(residual) / norm
    return float(ratio) if ratio.ndim == 0 else ratio
