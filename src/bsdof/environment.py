"""Synthetic passive multiport environments for controlled experiments.

Environments are dense i.i.d. complex-Gaussian scattering matrices rescaled
to a target spectral norm eta < 1 (strictly passive), with the mutual
coupling between the loaded ports dialed separately through mc_strength.
A ladder of decreasing strengths emulates the transition from a rich
reverberant environment down to nearly free space.  synth_matrices draws a
stack of same-shape environments at once; synth_environment is its one-item
wrapper.
"""

from dataclasses import dataclass, replace

import numpy as np

from .network import ScatteringSystem, spectral_norm
from .streams import box_muller, substream


@dataclass(frozen=True)
class EnvironmentSpec:
    """Recipe for one synthetic environment.

    scattering_strength is the target spectral norm of the full matrix;
    mc_strength scales the mutual-coupling block of the loaded ports after
    the global scaling (0 removes coupling, 1 leaves it untouched).
    """

    n_t: int
    n_r: int
    n_s: int
    scattering_strength: float
    mc_strength: float = 1.0
    reciprocal: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("n_t", "n_r", "n_s"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 <= self.scattering_strength < 1.0:
            raise ValueError(
                f"scattering_strength {self.scattering_strength} outside [0, 1)"
            )
        if not 0.0 <= self.mc_strength <= 1.0:
            raise ValueError(f"mc_strength {self.mc_strength} outside [0, 1]")
        if int(self.seed) < 0:
            raise ValueError("seed must be nonnegative")

    @property
    def n_total(self) -> int:
        return self.n_t + self.n_r + self.n_s

    @property
    def ports(self) -> tuple[range, range, range]:
        """The tx, rx and loaded port indices: contiguous, in that order."""
        n_tr = self.n_t + self.n_r
        return range(self.n_t), range(self.n_t, n_tr), range(n_tr, self.n_total)


def synth_matrices(specs) -> tuple[np.ndarray, np.ndarray]:
    """The matrices (k, N, N) of k specs of one shape, and each one's spectral norm.

    The specs share n_t, n_r, n_s and reciprocal; seeds and strengths vary.
    Each matrix is rescaled to its scattering_strength, its loaded-port block
    is scaled by mc_strength, and a matrix whose norm then exceeds the
    target is rescaled once more.  The norms are those of the final
    matrices: a matrix that needed no second rescale keeps the norm already
    taken, so its passivity costs no further SVD.
    """
    first = specs[0]
    shape = (first.n_t, first.n_r, first.n_s, first.reciprocal)
    if any((s.n_t, s.n_r, s.n_s, s.reciprocal) != shape for s in specs):
        raise ValueError("synth_matrices needs specs of one shape and reciprocity")
    n = first.n_total
    # magnitude words, then phase words, of each spec's own stream
    u = np.stack([substream(s.seed).random((2, n, n)) for s in specs])
    a = box_muller(u[:, 0], u[:, 1])
    if first.reciprocal:
        a = 0.5 * (a + a.swapaxes(-1, -2))
    strength = np.array([s.scattering_strength for s in specs])
    a *= (strength / spectral_norm(a))[:, None, None]
    bs = slice(first.n_t + first.n_r, n)
    a[:, bs, bs] *= np.array([s.mc_strength for s in specs])[:, None, None]
    norm = spectral_norm(a)
    over = (norm > strength) & (norm > 0.0)
    if over.any():
        a[over] *= (strength[over] / norm[over])[:, None, None]
        norm[over] = spectral_norm(a[over])
    return a, norm


def synth_environment(spec: EnvironmentSpec) -> ScatteringSystem:
    """Draw the environment described by spec; deterministic in spec.seed.

    Ports are assigned contiguously: tx first, then rx, then the loaded
    ports.  The Gaussian draw uses the package's fixed Box-Muller path, so
    the same spec reproduces the same matrix on any platform.
    """
    (a,), _ = synth_matrices([spec])
    return ScatteringSystem(spec.n_total, a, *spec.ports)


def zero_mc(system: ScatteringSystem) -> ScatteringSystem:
    """Copy of the system with the loaded-port coupling block zeroed.

    Idempotent; the result is re-validated (zeroing a principal block keeps
    the matrix passive).
    """
    matrix = system.matrix.copy()
    matrix[np.ix_(list(system.bs_ports), list(system.bs_ports))] = 0.0
    return replace(system, matrix=matrix)


def environment_ladder(base_spec: EnvironmentSpec, strengths) -> list[ScatteringSystem]:
    """Family of environments sharing base_spec's seed and geometry.

    strengths must be nonincreasing and inside [0, 1); rung k gets
    scattering_strength = strengths[k] and mc_strength scaled by
    strengths[k] / strengths[0], so coupling fades together with the
    overall scattering.
    """
    strengths = [float(s) for s in strengths]
    if not strengths:
        raise ValueError("strengths must be nonempty")
    if any(b > a for a, b in zip(strengths, strengths[1:])):
        raise ValueError(f"strengths must be nonincreasing, got {strengths}")
    if strengths[0] <= 0.0:
        raise ValueError("leading strength must be positive")
    systems = []
    for eta in strengths:
        rung = replace(
            base_spec,
            scattering_strength=eta,
            mc_strength=base_spec.mc_strength * eta / strengths[0],
        )
        systems.append(synth_environment(rung))
    return systems
