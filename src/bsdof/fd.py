"""Finite-difference Jacobian probes of a channel-prediction map.

These probe an opaque map, however obtained (closed-form model, solver or
measurement playback), one entry of the base point per column, and serve as
the independent cross-check of the closed-form Jacobian:

* complex_step_jacobian: forward difference along each complex load
  coordinate.  The map is holomorphic in r, so a plain one-sided step has
  O(step) truncation error and no conjugate terms to cancel.
* discrete_toggle_jacobian: exact secant across a two-state load flip,
  expressed per unit control step or per unit reflection-coefficient step.
* linear_map_fd_jacobian: forward difference of a fixed channel x -> H x.

Samplers differentiate by toggles when loads are two-state hardware
(experimental mode) and in closed form when a network model is available.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OracleError, UnsupportedOperationError
from .loads import LoadConstraint, toggle
from .network import Jacobian, ScatteringBlocks, end_to_end_channel

# Base relative step of the forward-difference probe.
DEFAULT_STEP = 1e-6


@dataclass
class ChannelMap:
    """A pure evaluator from a load configuration to an n_r-by-n_t channel."""

    evaluator: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_blocks(cls, blocks: ScatteringBlocks) -> "ChannelMap":
        return cls(lambda r: end_to_end_channel(blocks, r))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(r), dtype=complex)


def _evaluate(f: Callable, v: np.ndarray, where: str) -> np.ndarray:
    try:
        return f(v)
    except Exception as exc:
        raise OracleError(f"channel map failed at {where}: {exc}") from exc


def _secant_jacobian(f: Callable, v0: np.ndarray, probe: Callable, what: str) -> Jacobian:
    """Column i is (f(v0 with entry i set to value) - f(v0)) / divisor, where
    (value, divisor) = probe(i); a failing f raises OracleError naming where."""
    y0 = _evaluate(f, v0, "base point")
    jac = np.empty((y0.size, v0.size), dtype=complex)
    for i in range(v0.size):
        v = v0.copy()
        v[i], divisor = probe(i)
        jac[:, i] = (_evaluate(f, v, f"{what} column {i}") - y0) / divisor
    return Jacobian(jac)


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
    O(step); halving the step halves the error.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    r0 = np.asarray(r0, dtype=complex)
    h = step * (1.0 + np.hypot(r0.real, r0.imag))  # np.abs on an array can be an ulp off
    return _secant_jacobian(
        lambda r: channel_map(r) @ x, r0, lambda i: (r0[i] + h[i], h[i]), "perturbed"
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
    r0 = np.asarray(r0, dtype=complex)

    def flip(i: int) -> tuple:
        other = toggle(r0, i, constraint)[i]
        sign = 1.0 if r0[i] == constraint.off_value else -1.0
        return other, sign if wrt == "controls" else other - r0[i]

    return _secant_jacobian(lambda r: channel_map(r) @ x, r0, flip, "toggled")


def linear_map_fd_jacobian(h: np.ndarray, x0: np.ndarray, step: float = 1e-2) -> np.ndarray:
    """Forward-difference Jacobian of x -> H x at expansion point x0.

    The map is linear, so the result is H for any step and any x0; this is
    the sanity probe showing that a fixed channel has no operating-point
    structure to exploit.
    """
    h = np.asarray(h, dtype=complex)
    x0 = np.asarray(x0, dtype=complex)
    return _secant_jacobian(lambda x: h @ x, x0, lambda i: (x0[i] + step, step), "probed").matrix
