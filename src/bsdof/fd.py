"""Finite-difference Jacobian probes of a channel-prediction map.

These operate on an opaque map r -> H(r), however obtained (closed-form
model, solver, or measurement playback), and serve as the independent
cross-check of the closed-form Jacobian:

* complex_step_jacobian: forward difference along each complex load
  coordinate.  The map is holomorphic in r, so a plain one-sided step has
  O(step) truncation error and no conjugate terms to cancel.
* discrete_toggle_jacobian: exact secant across a two-state load flip,
  expressed per unit control step or per unit reflection-coefficient step.

The default differencing is the toggle form when loads are two-state
hardware (experimental mode) and the closed form when a network model is
available (model mode); samplers expose that choice as a mode flag.
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
    n_s: int
    n_t: int
    n_r: int

    @classmethod
    def from_blocks(cls, blocks: ScatteringBlocks) -> "ChannelMap":
        return cls(
            evaluator=lambda r: end_to_end_channel(blocks, r),
            n_s=blocks.n_bs,
            n_t=blocks.n_tx,
            n_r=blocks.n_rx,
        )

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(r), dtype=complex)


def _evaluate(channel_map: ChannelMap, r: np.ndarray, where: str) -> np.ndarray:
    try:
        return channel_map(r)
    except Exception as exc:
        raise OracleError(f"channel map failed at {where}: {exc}") from exc


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
    r0 = np.asarray(r0, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if step <= 0:
        raise ValueError("step must be positive")
    y0 = _evaluate(channel_map, r0, "base point") @ x
    jac = np.empty((channel_map.n_r, channel_map.n_s), dtype=complex)
    for i in range(channel_map.n_s):
        h = step * (1.0 + abs(r0[i]))
        r_probe = r0.copy()
        r_probe[i] += h
        y = _evaluate(channel_map, r_probe, f"perturbed column {i}") @ x
        jac[:, i] = (y - y0) / h
    return Jacobian(jac)


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
    x = np.asarray(x, dtype=complex)
    y0 = _evaluate(channel_map, r0, "base point") @ x
    jac = np.empty((channel_map.n_r, channel_map.n_s), dtype=complex)
    for i in range(channel_map.n_s):
        r_flip = toggle(r0, i, constraint)
        y = _evaluate(channel_map, r_flip, f"toggled column {i}") @ x
        if wrt == "controls":
            denom = 1.0 if r0[i] == constraint.off_value else -1.0
        else:
            denom = r_flip[i] - r0[i]
        jac[:, i] = (y - y0) / denom
    return Jacobian(jac)


def linear_map_fd_jacobian(h: np.ndarray, x0: np.ndarray, step: float = 1e-2) -> np.ndarray:
    """Forward-difference Jacobian of x -> H x at expansion point x0.

    The map is linear, so the result is H for any step and any x0; this is
    the sanity probe showing that a fixed channel has no operating-point
    structure to exploit.
    """
    h = np.asarray(h, dtype=complex)
    x0 = np.asarray(x0, dtype=complex)
    y0 = h @ x0
    jac = np.empty_like(h)
    for i in range(h.shape[1]):
        x_probe = x0.copy()
        x_probe[i] += step
        jac[:, i] = (h @ x_probe - y0) / step
    return jac
