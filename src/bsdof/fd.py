"""Finite-difference Jacobian probes of a channel-prediction map.

These probe an opaque map, however obtained (closed-form model, solver or
measurement playback), in one evaluation on a stack of the base point and
an array of probe points, one per column, and serve as the independent
cross-check of the closed-form Jacobian.  complex_step_jacobian also takes
k base points (k, n_s); ChannelMap.from_blocks evaluates their oracle stack
(k, n_s + 1, n_s) on stacked blocks, one system per item:

* complex_step_jacobian: forward difference along each complex load
  coordinate.  The map is holomorphic in r, so a plain one-sided step has
  O(step) truncation error and no conjugate terms to cancel.
* discrete_toggle_jacobian: exact secant across a two-state load flip,
  expressed per unit control step or per unit reflection-coefficient step.
* linear_map_fd_jacobian: forward difference of a fixed channel x -> H x.

Samplers differentiate by toggles when loads are two-state hardware
(experimental mode) and in closed form when a network model is available.

The closed form goes through network.coupling_resolvent and from_blocks
through network.channel, so oracle and closed form share no solve; the
toggle oracle shares only loads.on_mask, the two-state check.  One
uncertified system in a from_blocks stack puts every row on channel's gated
path; validate-jacobian certifies its systems (eta <= 0.9) by their norms.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OracleError, UnsupportedOperationError
from .loads import LoadConstraint, on_mask
from .network import Jacobian, ScatteringBlocks, channel

# Base relative step of the forward-difference probe.
DEFAULT_STEP = 1e-6


@dataclass
class ChannelMap:
    """A pure evaluator from loads (..., k, n_s) to channels (..., k, n_r, n_t);
    a row it cannot compute is NaN, and the oracles name its configuration."""

    evaluator: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_blocks(cls, blocks: ScatteringBlocks) -> "ChannelMap":
        """H(r) of each row through one network.channel call; rows below RCOND_MIN are NaN.

        Stacked blocks (..., rows, cols) map loads (..., k, n_s), each stack of k
        rows through its own system, under blocks.certified (one SVD unless set):
        the k axis goes first, so each system's blocks broadcast over its own rows.
        """

        def channels(r: np.ndarray) -> np.ndarray:
            h, ok = channel(blocks, np.moveaxis(r, -2, 0))
            h[~ok] = np.nan
            return np.moveaxis(h, 0, -3)

        return cls(channels)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(r), dtype=complex)


def _secant_jacobian(
    f: Callable, v0: np.ndarray, values: np.ndarray, divisors: np.ndarray, what: str
) -> Jacobian:
    """Column i is (f(v) - f(v0)) / divisors[..., i], where v is v0 with entry i set to
    values[..., i].  v0 may be a stack (..., n), and values and divisors share its shape.
    One call of f maps the stack (..., n + 1, n) of every v0 and v to (..., n + 1, m); a
    raising f or a non-finite row raises OracleError naming the point."""
    n = v0.shape[-1]
    stack = np.repeat(v0[..., None, :], n + 1, axis=-2)
    stack[..., np.arange(1, n + 1), np.arange(n)] = values
    try:
        y = f(stack)
    except Exception as exc:
        raise OracleError(f"channel map failed: {exc}") from exc
    finite = np.isfinite(y).reshape(stack.shape[:-1] + (-1,)).all(axis=-1)
    if not finite.all():
        *item, row = np.argwhere(~finite)[0]
        where = "base point" if row == 0 else f"{what} column {row - 1}"
        where += f" of item {', '.join(map(str, item))}" if item else ""
        raise OracleError(f"channel map failed at {where}: non-finite output")
    return Jacobian(((y[..., 1:, :] - y[..., :1, :]) / divisors[..., None]).swapaxes(-1, -2))


def complex_step_jacobian(
    channel_map: ChannelMap,
    r0: np.ndarray,
    x: np.ndarray,
    step: float = DEFAULT_STEP,
) -> Jacobian:
    """Forward-difference Jacobian of r -> H(r) x at r0.

    Column i is (H(r0 + h_i e_i) x - H(r0) x) / h_i with the per-coordinate
    step h_i = step * (1 + |r0_i|), so coordinates near the unit circle are
    probed no more timidly than ones near zero.  Truncation error is
    O(step); halving the step halves the error.  A stack of base points
    r0 (..., n_s) with illuminations x (..., n_t) gives a stack of Jacobians
    from one call of the map.
    """
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    r0, x = np.asarray(r0, dtype=complex), np.asarray(x)
    h = step * (1.0 + np.hypot(r0.real, r0.imag))  # np.abs on an array can be an ulp off
    return _secant_jacobian(
        lambda r: (channel_map(r) @ x[..., None, :, None])[..., 0], r0, r0 + h, h, "perturbed"
    )


def discrete_toggle_jacobian(
    channel_map: ChannelMap,
    r0: np.ndarray,
    x: np.ndarray,
    constraint: LoadConstraint,
    wrt: str = "controls",
) -> Jacobian:
    """Secant Jacobian across single-load state flips of a two-state family.

    With wrt="controls" column i is the output change per unit signed
    control step (+1 for off->on, -1 for on->off); with wrt="reflection" it
    is the change divided by the actual reflection-coefficient difference.
    The two differ by the global factor (on_value - off_value) only, so
    they share their singular-value geometry.
    """
    if not constraint.discrete:
        raise UnsupportedOperationError("toggle differencing needs a two-state constraint")
    if wrt not in ("controls", "reflection"):
        raise ValueError(f"wrt must be 'controls' or 'reflection', got {wrt!r}")
    r0, x = np.asarray(r0, dtype=complex), np.asarray(x)
    is_on = on_mask(r0, constraint.on_value, constraint.off_value)
    other = np.where(is_on, constraint.off_value, constraint.on_value)
    divisors = np.where(is_on, -1.0, 1.0) if wrt == "controls" else other - r0
    return _secant_jacobian(
        lambda r: (channel_map(r) @ x[:, None])[..., 0], r0, other, divisors, "toggled"
    )


def linear_map_fd_jacobian(h: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of x -> H x at expansion point x0, step 1e-2.

    The map is linear, so the result is H for any step and any x0; this is
    the sanity probe showing that a fixed channel has no operating-point
    structure to exploit.
    """
    h = np.asarray(h, dtype=complex)
    x0 = np.asarray(x0, dtype=complex)
    step = np.full(x0.shape, 1e-2)  # real: a complex divisor would round differently
    return _secant_jacobian(lambda x: x @ h.T, x0, x0 + step, step, "probed").matrix
