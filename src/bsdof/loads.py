"""Reflective load constraint families and samplers.

Three families cover the practically relevant programmable loads:

* PIN: two measured diode states (defaults below), or any custom two-state
  pair with magnitudes <= 1.
* PM:  idealized phase modulation, exactly +1 / -1.
* UNI: continuous loads, magnitude uniform on [0, 1] and phase uniform on
  [0, 2*pi), drawn independently.

validate_loads is the one admissibility check on load values (finite,
|r| <= 1 + LOAD_MAG_TOL): constraint states pass it, and so does every solve.
on_mask is the one two-state check, which every two-state caller reads.

loads_from_uniforms is the one draw formula: the samplers feed it words of
streams.substream_uniforms, and sample_loads (a reference helper for tests
and benchmarks) a numpy Generator's.  Nothing touches global RNG state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentStateError
from .streams import TWO_PI

# Measured reflection coefficients of a representative PIN-diode element.
PIN_ON = -0.8116 + 0.0j
PIN_OFF = 0.6366 - 0.7712j

# Measured coefficients are rounded, so near-unit magnitudes can land a few
# 1e-6 above 1 (|PIN_OFF| does).  Accept that much and no more.
LOAD_MAG_TOL = 1e-4

PM_ON = 1.0 + 0.0j
PM_OFF = -1.0 + 0.0j

_KINDS = ("PIN", "PM", "UNI")


def validate_loads(r: np.ndarray, n_s: int | None = None) -> np.ndarray:
    """Coerce and validate loads of shape (..., n_s).

    Every magnitude must be at most 1 + LOAD_MAG_TOL.  The one comparison
    of the largest magnitude also rejects NaN and inf.  Returns the coerced
    complex array.
    """
    r = np.asarray(r, dtype=complex)
    if r.ndim == 0 or (n_s is not None and r.shape[-1] != n_s):
        raise ValueError(f"expected loads of shape (..., {n_s}), got {r.shape}")
    top = np.abs(r).max()
    if not top <= 1.0 + LOAD_MAG_TOL:
        raise ValueError(f"load magnitudes must be finite and at most 1, largest is {top:.6g}")
    return r


@dataclass(frozen=True)
class LoadConstraint:
    """A load family: two-state (PIN, PM) or continuous (UNI).

    For two-state kinds, on_value / off_value are the admissible reflection
    coefficients; only PIN takes custom ones.  UNI carries no state values.
    """

    kind: str
    on_value: complex | None = None
    off_value: complex | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind != "PIN" and (self.on_value, self.off_value) != (None, None):
            raise ValueError(f"{self.kind} constraint takes no on/off values")
        if self.kind == "UNI":
            return
        on = complex(self.on_value if self.on_value is not None else _DEFAULTS[self.kind][0])
        off = complex(self.off_value if self.off_value is not None else _DEFAULTS[self.kind][1])
        validate_loads([on, off])
        if on == off:
            raise ValueError("on_value and off_value must differ")
        object.__setattr__(self, "on_value", on)
        object.__setattr__(self, "off_value", off)

    @property
    def discrete(self) -> bool:
        return self.kind != "UNI"

    def uniforms_per_draw(self, n_s: int) -> int:
        """Stream words one draw of n_s loads takes: a coin each, or a magnitude and a phase."""
        return n_s if self.discrete else 2 * n_s

    @classmethod
    def pin(cls, on: complex = PIN_ON, off: complex = PIN_OFF) -> "LoadConstraint":
        return cls("PIN", on, off)

    @classmethod
    def pm(cls) -> "LoadConstraint":
        return cls("PM")

    @classmethod
    def uni(cls) -> "LoadConstraint":
        return cls("UNI")

    @classmethod
    def from_dict(cls, payload: dict) -> "LoadConstraint":
        """Constraint from a config.json payload; wrong JSON types raise ValueError.

        PIN takes optional on/off values as [re, im] or [re]; PM and UNI take none.
        """
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError(f"a constraint is a JSON object with a 'kind', got {payload!r}")
        states = [payload.get("on"), payload.get("off")]
        for v in states:
            real = isinstance(v, list) and all(type(p) in (int, float) for p in v)  # no bool
            if v is not None and not (real and 1 <= len(v) <= 2):
                raise ValueError(f"constraint on/off must be [re] or [re, im] numbers, got {v!r}")
        return cls(payload["kind"], *(None if v is None else complex(*v) for v in states))


_DEFAULTS = {"PIN": (PIN_ON, PIN_OFF), "PM": (PM_ON, PM_OFF)}


def loads_from_uniforms(constraint: LoadConstraint, u: np.ndarray) -> np.ndarray:
    """Load configurations from rows of constraint.uniforms_per_draw(n_s) uniforms.

    Two-state kinds are fair coin flips: a uniform below 0.5 picks on, else
    off.  UNI takes the magnitudes from the first half of a row and the
    phases from the second half.
    """
    if constraint.discrete:
        return np.where(u < 0.5, constraint.on_value, constraint.off_value)
    n_s = u.shape[-1] // 2
    return u[..., :n_s] * np.exp(1j * (TWO_PI * u[..., n_s:]))


def sample_loads(constraint: LoadConstraint, n_s: int, stream: np.random.Generator) -> np.ndarray:
    """Draw one load configuration of length n_s from the given stream."""
    n_s = int(n_s)
    if n_s < 1:
        raise ValueError("n_s must be at least 1")
    return loads_from_uniforms(constraint, stream.random(constraint.uniforms_per_draw(n_s)))


def on_mask(r: np.ndarray, on: complex, off: complex) -> np.ndarray:
    """r == on for two-state loads of any shape; InconsistentStateError for equal states,
    or naming the first load that equals neither on nor off exactly."""
    if on == off:
        raise InconsistentStateError(f"the two states must differ, both are {on}")
    r = np.asarray(r)
    is_on = r == on
    stray = (r != on) & (r != off)
    if stray.any():
        at = tuple(np.argwhere(stray)[0].tolist())
        raise InconsistentStateError(
            f"load {at} value {r[at]} takes neither of the two states on ({on}) and off ({off})"
        )
    return is_on

