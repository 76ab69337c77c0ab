"""Multiport scattering model of a load-modulated backscatter link.

An N-port scattering matrix is partitioned into transmitter (T), receiver (R)
and backscatter (S) port groups.  Terminating the S ports with reflective
loads r turns the network into an end-to-end channel

    H(r) = S_RT + S_RS G(r) diag(r) S_ST,   G(r) = (I - diag(r) S_SS)^-1,

where the coupling resolvent G captures multiple scattering between the
loaded ports.  The map r -> H(r) x is holomorphic and its Jacobian has the
closed form

    J(r0, x) = S_RS G(r0) diag(W(r0) x),
    W(r)     = S_SS G(r) diag(r) S_ST + S_ST,

with W x the wave incident on the loads under illumination x.  All of it is
batched over loads (..., N_S) and over stacked systems (ScatteringBlocks
takes leading axes, partition cuts them out of a stack of matrices, and k
systems take loads (k, N_S)).  resolvent forms G and its rcond,
jacobian_factors (S_RS G, W) from G and load_jacobian J from that pair; the
scalar APIs (coupling_resolvent, closed_form_jacobian) wrap them and raise
SingularityError where a load is singular.  Blocks carry the passivity
certificate ScatteringBlocks.certified: where it holds no admissible load is
singular, so the solves form no G or rcond; else they gate their mask ok of
regular loads on resolvent's rcond.  (S_RS G, W, ok) comes from factors for
any loads (certified: two LU solves), from two_state_factors for loads each
on or off (certified: a Woodbury change of at most N_S // 2 loads from all
on or all off), and, with the toggle denominators that ok gates too, from
toggle_factors; channel gives (H, ok), from resolvent's G where uncertified.
The two-state entries check their loads through loads.on_mask and take their
certified tables from one solve against [S_RS; S_SS].  Single-load changes
update G and H in O(N_S^2).
"""

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import PartitionError, PassivityError, SingularityError
from .loads import LOAD_MAG_TOL, on_mask, validate_loads

# Spectral-norm slack when validating passivity of a loaded matrix.
PASSIVITY_TOL = 1e-9

# Resolvent solves below this reciprocal condition number are rejected.
RCOND_MIN = 1e-12

# Unit-norm slack for illumination vectors.
UNIT_NORM_TOL = 1e-12


def frobenius_norm(a: np.ndarray, axes: int = 2) -> np.ndarray:
    """np.linalg.norm over the last `axes` axes of each item of a stack, to the bit.

    np.linalg.norm of a complex array is sqrt(re . re + im . im) over its
    ravel; the same dot products, taken as a matmul of each C-order ravel
    with itself, round the same, while einsum and axis= reductions can move
    a value by an ulp.
    """
    flat = a.reshape(a.shape[: a.ndim - axes] + (-1, 1))
    re, im = flat.real, flat.imag
    return np.sqrt(re.swapaxes(-1, -2) @ re + im.swapaxes(-1, -2) @ im)[..., 0, 0]


def validate_illumination(x: np.ndarray, n_t: int | None = None) -> np.ndarray:
    """Coerce and validate a unit-norm illumination vector, or a stack (..., n_t) of them."""
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    if n_t is not None and x.shape[-1] != n_t:
        raise ValueError(f"expected {n_t} illumination entries, got {x.shape[-1]}")
    norm = frobenius_norm(x, 1)
    off = ~(np.abs(norm - 1.0) <= UNIT_NORM_TOL)
    if off.any():
        raise ValueError(f"illumination norm {norm[off][0]!r} is not 1 within {UNIT_NORM_TOL}")
    return x


def spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """||a||_2, the largest singular value, of a matrix or of each matrix in a stack.

    LAPACK returns the singular values in descending order, so the first is
    the maximum and the result equals np.linalg.norm(a, 2) bit for bit; a
    single matrix gives a float.
    """
    top = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(top) if top.ndim == 0 else top


def require_passive(norm) -> None:
    """Raise PassivityError if a spectral norm, or any of a stack of them, exceeds 1."""
    worst = np.max(norm)
    if worst > 1.0 + PASSIVITY_TOL:
        raise PassivityError(f"spectral norm {worst:.12g} exceeds 1 (not passive)")


def _integer(value, what: str) -> int:
    """An integer read from JSON: an int or an integral float, not a bool; else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Integral, float)) or value % 1:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _validate_port_group(name: str, ports, n_total: int) -> tuple:
    if isinstance(ports, str) or not np.iterable(ports):
        raise ValueError(f"{name} must be a list of port indices, got {ports!r}")
    ports = tuple(_integer(p, f"{name} index") for p in ports)
    if len(ports) == 0:
        raise PartitionError(f"{name} is empty")
    if len(set(ports)) != len(ports):
        raise PartitionError(f"{name} contains duplicate indices: {ports}")
    for p in ports:
        if p < 0 or p >= n_total:
            raise PartitionError(f"{name} index {p} out of range for {n_total} ports")
    return ports


@dataclass
class ScatteringSystem:
    """An N-port scattering matrix with a declared role for each used port.

    Port index lists are 0-based and ordered; their order fixes the row and
    column order of every extracted block.  The reference impedance is
    metadata only and never enters any computation.
    """

    n_total: int
    matrix: np.ndarray
    tx_ports: tuple
    rx_ports: tuple
    bs_ports: tuple
    reference_impedance: float = 50.0

    def __post_init__(self):
        self.n_total = int(self.n_total)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.n_total, self.n_total):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match n_total={self.n_total}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("scattering matrix contains non-finite entries")
        self.tx_ports = _validate_port_group("tx_ports", self.tx_ports, self.n_total)
        self.rx_ports = _validate_port_group("rx_ports", self.rx_ports, self.n_total)
        self.bs_ports = _validate_port_group("bs_ports", self.bs_ports, self.n_total)
        groups = self.tx_ports + self.rx_ports + self.bs_ports
        if len(set(groups)) != len(groups):
            raise PartitionError("port groups overlap")
        require_passive(spectral_norm(self.matrix))
        self.reference_impedance = float(self.reference_impedance)


@dataclass
class ScatteringBlocks:
    """The four sub-blocks of a partitioned scattering matrix, or stacks of them.

    s_rt: rx-by-tx direct link, s_rs: rx-by-bs, s_ss: bs-by-bs mutual
    coupling, s_st: bs-by-tx.  Leading axes stack systems; the shape checks
    read the last two axes.
    """

    s_rt: np.ndarray
    s_rs: np.ndarray
    s_ss: np.ndarray
    s_st: np.ndarray

    def __post_init__(self):
        self.s_rt = np.asarray(self.s_rt, dtype=complex)
        self.s_rs = np.asarray(self.s_rs, dtype=complex)
        self.s_ss = np.asarray(self.s_ss, dtype=complex)
        self.s_st = np.asarray(self.s_st, dtype=complex)
        n_r, n_t = self.s_rt.shape[-2:]
        n_s = self.s_ss.shape[-1]
        if self.s_ss.shape[-2:] != (n_s, n_s):
            raise ValueError(f"s_ss must be square, got {self.s_ss.shape}")
        if self.s_rs.shape[-2:] != (n_r, n_s):
            raise ValueError(f"s_rs shape {self.s_rs.shape} inconsistent with ({n_r}, {n_s})")
        if self.s_st.shape[-2:] != (n_s, n_t):
            raise ValueError(f"s_st shape {self.s_st.shape} inconsistent with ({n_s}, {n_t})")

    @cached_property
    def certified(self) -> bool:
        """rcond_floor(s_ss) >= RCOND_MIN for every stacked system: then no admissible
        load is singular, and the solves skip the gate.  One SVD, on first use, unless set."""
        return bool(np.all(rcond_floor(self.s_ss) >= RCOND_MIN))

    @property
    def n_tx(self) -> int:
        return self.s_rt.shape[-1]

    @property
    def n_rx(self) -> int:
        return self.s_rt.shape[-2]

    @property
    def n_bs(self) -> int:
        return self.s_ss.shape[-1]


@dataclass
class Jacobian:
    """A load-to-output Jacobian; its singular spectrum is computed on first use."""

    matrix: np.ndarray

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Nonincreasing singular values of the matrix."""
        return np.linalg.svd(self.matrix, compute_uv=False)


def partition(s: np.ndarray, tx_ports, rx_ports, bs_ports) -> ScatteringBlocks:
    """Slice the four channel blocks out of a matrix, or a stack (..., N, N) of them.

    Row and column order follow the port lists.
    """

    def block(rows, cols) -> np.ndarray:
        # fancy indexing after an ellipsis gives a strided result; matmul wants C order
        return np.ascontiguousarray(s[(..., *np.ix_(list(rows), list(cols)))])

    return ScatteringBlocks(
        s_rt=block(rx_ports, tx_ports),
        s_rs=block(rx_ports, bs_ports),
        s_ss=block(bs_ports, bs_ports),
        s_st=block(bs_ports, tx_ports),
    )


def extract_blocks(system: ScatteringSystem) -> ScatteringBlocks:
    """The four channel blocks of a partitioned system, in its declared port order."""
    return partition(system.matrix, system.tx_ports, system.rx_ports, system.bs_ports)


def rcond_floor(s_ss: np.ndarray) -> float | np.ndarray:
    """Passivity certificate: a lower bound on the rcond of every admissible A.

    With eta = ||S_SS||_2 and rho = 1 + LOAD_MAG_TOL, every admissible
    configuration has sigma_min(I - diag(r) S_SS) >= 1 - rho*eta, so its
    exact 1-norm rcond is at least (1 - rho*eta) / (n_s (1 + rho*eta)).
    Gives 0 where rho*eta >= 1, where passivity alone proves nothing; a
    stack (..., n_s, n_s) gives one floor per item, a single matrix a float.
    """
    s_ss = np.asarray(s_ss, dtype=complex)
    floor = norm_floor(spectral_norm(s_ss), s_ss.shape[-1])
    return float(floor) if floor.ndim == 0 else floor


def norm_floor(eta, n_s: int) -> np.ndarray:
    """rcond_floor from each eta >= ||S_SS||_2 of n_s loads: it falls as eta rises."""
    bound = (1.0 + LOAD_MAG_TOL) * np.asarray(eta)
    return np.where(bound < 1.0, (1.0 - bound) / (n_s * (1.0 + bound)), 0.0)


def _load_matrix(s_ss: np.ndarray, r: np.ndarray) -> np.ndarray:
    """A = I - diag(r) S_SS for loads (..., n_s), without a dense identity.

    Adding 1 through a strided view of the diagonal gives the entries of
    eye - r S_SS at a fraction of the cost of broadcasting eye over a stack.
    """
    n_s = s_ss.shape[-1]
    # C order makes the flattening reshape a view, so the diagonal is written in place
    a = np.multiply(-r[..., :, None], s_ss, order="C")
    a.reshape(a.shape[:-2] + (n_s * n_s,))[..., :: n_s + 1] += 1.0
    return a


def resolvent(s_ss: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G(r) = (I - diag(r) S_SS)^-1 and its reciprocal condition number.

    Loads of shape (..., n_s) give G of shape (..., n_s, n_s) and rcond of
    shape (...); S_SS may be a stack that broadcasts against them.  G comes
    from LU with partial pivoting, and rcond is the exact 1-norm value
    1 / (||A||_1 ||A^-1||_1), which is free once the dense inverse is in
    hand.  An exactly singular configuration gets rcond 0 and a zero G.
    """
    s_ss = np.asarray(s_ss, dtype=complex)
    r = validate_loads(r, s_ss.shape[-1])
    a = _load_matrix(s_ss, r)
    try:
        g = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # numpy fails the whole stack for one singular matrix: solve its items apart
        if a.ndim == 2:
            return np.zeros_like(a), np.float64(0.0)
        pairs = zip(np.broadcast_to(s_ss, a.shape), np.broadcast_to(r, a.shape[:-1]))
        parts = [resolvent(s, row) for s, row in pairs]
        return np.stack([p[0] for p in parts]), np.stack([p[1] for p in parts])
    rcond = 1.0 / (np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(g).sum(axis=-2).max(axis=-1))
    return g, rcond


def jacobian_factors(
    blocks: ScatteringBlocks, g: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The factor pair (S_RS G, W) of J = S_RS G diag(W x), batched like resolvent.

    W(r) = S_SS G(r) diag(r) S_ST + S_ST maps the illumination to the wave
    incident on the loads, including all re-scattering.
    """
    w = blocks.s_ss @ (g * r[..., None, :]) @ blocks.s_st + blocks.s_st
    return blocks.s_rs @ g, w


def factors(blocks: ScatteringBlocks, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """The factor pair (S_RS G, W) of jacobian_factors and the mask ok of regular loads.

    On certified blocks ok is all True, and S_RS G = solve(A^T, S_RS^T)^T and
    W = S_SS solve(A, diag(r) S_ST) + S_ST take two LU solves instead of the
    dense inverse.  Otherwise G is formed once through resolvent and ok is
    rcond >= RCOND_MIN.
    """
    r = np.asarray(r, dtype=complex)
    if not blocks.certified:
        g, rcond = resolvent(blocks.s_ss, r)  # which validates r
        return (*jacobian_factors(blocks, g, r), rcond >= RCOND_MIN)
    validate_loads(r, blocks.n_bs)
    a = _load_matrix(blocks.s_ss, r)
    w = blocks.s_ss @ _solved_drive(a, blocks, r) + blocks.s_st
    return _rows_times_g(a, blocks.s_rs), w, np.ones(r.shape[:-1], bool)


def _two_state_loads(blocks: ScatteringBlocks, r: np.ndarray, on: complex, off: complex) -> tuple:
    """(r, states, is_on) of loads (c, n_s) on one system, each of the validated states [on, off]."""
    r, states = np.asarray(r, dtype=complex), validate_loads([on, off])
    if r.ndim != 2 or r.shape[1] != blocks.n_bs:
        raise ValueError(f"expected loads (c, {blocks.n_bs}) of the two states {on} and {off}")
    return r, states, on_mask(r, *states)


def toggle_factors(blocks: ScatteringBlocks, r: np.ndarray, on: complex, off: complex) -> tuple:
    """factors' (S_RS G, W), the denominators 1 - delta diag(S_SS G) of toggling each load k of
    two-state loads (c, n_s) on one system to its other state, and ok, which also needs every
    |denominator| >= RCOND_MIN.  Certified, one solve of A^T gives S_RS G and S_SS G, no G."""
    r, states, is_on = _two_state_loads(blocks, r, on, off)
    delta = np.where(is_on, states[1], states[0]) - r
    if blocks.certified:
        rx, ss_g, w = _two_state_tables(blocks, r)
        denom, ok = 1.0 - delta * np.diagonal(ss_g, axis1=1, axis2=2), np.ones(len(r), bool)
    else:
        g, rcond = resolvent(blocks.s_ss, r)  # which validates r
        denom = 1.0 - delta * np.einsum("kj,cjk->ck", blocks.s_ss, g)
        (rx, w), ok = jacobian_factors(blocks, g, r), rcond >= RCOND_MIN
    return rx, w, denom, ok & (np.abs(denom).min(axis=1) >= RCOND_MIN)


def two_state_factors(blocks: ScatteringBlocks, r: np.ndarray, on: complex, off: complex) -> tuple:
    """factors' (S_RS G, W, ok) for loads (c, n_s) on one system, each entry on or off.

    Certified, each draw is a change of k = n_s // 2 selected loads from its base b, the
    state most of its loads take (on in a tie): the loads that differ from b, then loads
    that do not, with delta = 0, in index order.  From one solve of A_b^T per base,
    M_b = S_SS A_b^-1, B_b = S_RS A_b^-1 and P_b = (I + b M_b) S_ST, and with
    C = I_k - diag(delta) M_b[sel, sel] the Woodbury identity gives

        S_RS G = B_b + B_b[:, sel] C^-1 diag(delta) M_b[sel, :],
        W      = P_b + M_b[:, sel] C^-1 diag(delta) P_b[sel, :],

    through one solve of C^T (n_r right-hand sides) and one of C (n_t).  det A =
    det A_b det C and A_b is admissible, so C is regular wherever A is and ok is all True.
    The fixed width k keeps each draw's bits apart from the rest of its stack.
    Uncertified, this is factors, after the same check of the loads.
    """
    r, states, is_on = _two_state_loads(blocks, r, on, off)
    if not blocks.certified:
        return factors(blocks, r)
    n_s = blocks.n_bs
    b_rx, m, p = _two_state_tables(blocks, np.repeat(states[:, None], n_s, axis=1))
    # per draw, base 0 (on) or 1 (off); the rows of base b's matrices start at b n_s
    base = (2 * is_on.sum(axis=1) < n_s).astype(np.intp)
    sel = np.argsort(is_on == (base == 0)[:, None], axis=1, kind="stable")[:, : n_s // 2]
    row = sel + n_s * base[:, None]
    delta = (np.take_along_axis(r, sel, axis=1) - states[base][:, None])[:, :, None]
    c = _load_matrix(m.reshape(-1)[n_s * row[:, :, None] + sel[:, None, :]], delta[:, :, 0])
    rows_of = lambda x: x.reshape(2 * n_s, -1)[row]
    z = np.linalg.solve(c.swapaxes(1, 2), rows_of(b_rx.swapaxes(1, 2)))
    rx = b_rx[base]
    rx += (delta * z).swapaxes(1, 2) @ rows_of(m)
    y = np.linalg.solve(c, delta * rows_of(p))
    w = p[base]
    w += (y.swapaxes(1, 2) @ rows_of(m.swapaxes(1, 2))).swapaxes(1, 2)
    return rx, w, np.ones(len(r), bool)


def _two_state_tables(blocks: ScatteringBlocks, r: np.ndarray) -> tuple:
    """S_RS G, S_SS G and W for loads (c, n_s) on certified blocks: one solve of A^T, no G."""
    solved = _rows_times_g(_load_matrix(blocks.s_ss, r), np.concatenate([blocks.s_rs, blocks.s_ss]))
    rx, ss_g = np.split(solved, [blocks.n_rx], axis=1)
    return rx, ss_g, ss_g @ (r[:, :, None] * blocks.s_st) + blocks.s_st


def _rows_times_g(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rows G = solve(A^T, rows^T)^T for rows (m, n_s): one LU per load row, no G."""
    # numpy < 2 would read a 2-d right-hand side of a stacked solve as vectors
    rhs = np.broadcast_to(rows.T, a.shape[:-2] + rows.T.shape)
    return np.linalg.solve(a.swapaxes(-1, -2), rhs).swapaxes(-1, -2)


def _solved_drive(a: np.ndarray, blocks: ScatteringBlocks, r: np.ndarray) -> np.ndarray:
    """G diag(r) S_ST as solve(A, diag(r) S_ST): one LU per load row, n_t right-hand sides."""
    return np.linalg.solve(a, r[..., :, None] * blocks.s_st)


def channel(blocks: ScatteringBlocks, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """H(r) and the mask ok of regular loads, split on blocks.certified as in factors:
    certified, H = S_RT + S_RS solve(A, diag(r) S_ST) forms no G or rcond and ok is all
    True; otherwise H comes from resolvent's G and ok is rcond >= RCOND_MIN."""
    r = np.asarray(r, dtype=complex)
    if not blocks.certified:
        g, rcond = resolvent(blocks.s_ss, r)  # which validates r
        return _channel_from_resolvent(blocks, g, r), rcond >= RCOND_MIN
    validate_loads(r, blocks.n_bs)
    drive = _solved_drive(_load_matrix(blocks.s_ss, r), blocks, r)
    return blocks.s_rt + blocks.s_rs @ drive, np.ones(r.shape[:-1], bool)


def incident_drive(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x for stacks w (..., n_s, n_t) and x (n_t,) or (..., n_t)."""
    return (w @ x[..., None])[..., 0]


def load_jacobian(rx_factor: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J = S_RS G diag(W x) from the factor pair, batched like incident_drive."""
    return rx_factor * incident_drive(w, x)[..., None, :]


def coupling_resolvent(s_ss: np.ndarray, r: np.ndarray) -> np.ndarray:
    """G(r), raising SingularityError where rcond falls below RCOND_MIN."""
    g, rcond = resolvent(s_ss, r)
    worst = rcond.min()
    if not worst >= RCOND_MIN:
        raise SingularityError(
            f"coupling resolvent singular: rcond {worst:.3e} < {RCOND_MIN:.0e}",
            rcond=float(worst),
        )
    return g


def _channel_from_resolvent(blocks: ScatteringBlocks, g: np.ndarray, r: np.ndarray) -> np.ndarray:
    return blocks.s_rt + blocks.s_rs @ (g * r[..., None, :]) @ blocks.s_st


def closed_form_jacobian(blocks: ScatteringBlocks, r0: np.ndarray, x: np.ndarray) -> Jacobian:
    """Derivative of r -> H(r) x at r0: J = S_RS G(r0) diag(W(r0) x).

    The illumination must be unit-norm.  Column j is the sensitivity of the
    received wavefront to load j; all columns live in the column space of
    S_RS, so the load count never raises the wavefront diversity above what
    the receive coupling supports.  Stacked blocks take one r0 (k, n_s)
    and one x (k, n_t) per system and give a stack of Jacobians.
    """
    r0 = np.asarray(r0, dtype=complex)
    x = validate_illumination(x, n_t=blocks.n_tx)
    g = coupling_resolvent(blocks.s_ss, r0)
    return Jacobian(load_jacobian(*jacobian_factors(blocks, g, r0), x))


def woodbury_channel_update(
    blocks: ScatteringBlocks,
    base_resolvent: np.ndarray,
    base_r: np.ndarray,
    changed_index: int,
    new_value: complex,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 update of (G, H) when a single load changes value.

    Changing load k from r_k to r_k + delta perturbs A = I - diag(r) S_SS by
    -delta e_k S_SS[k, :], so Sherman-Morrison gives

        G' = G + (delta / (1 - delta t_k)) G[:, k] (S_SS[k, :] G),

    with t_k = (S_SS G)[k, k].  Returns (G', H') at O(N_S^2) cost.  Raises
    ValueError for inadmissible loads and SingularityError when
    |1 - delta t_k| < RCOND_MIN.
    """
    g = np.asarray(base_resolvent, dtype=complex)
    n_s = g.shape[0]
    r = validate_loads(base_r, n_s)
    k = int(changed_index)
    if k < 0 or k >= n_s:
        raise IndexError(f"changed_index {k} out of range for {n_s} loads")
    r_new = r.copy()
    r_new[k] = validate_loads([new_value])[0]
    delta = r_new[k] - r[k]
    t_row = blocks.s_ss[k, :] @ g
    denom = 1.0 - delta * t_row[k]
    if abs(denom) < RCOND_MIN:
        raise SingularityError(
            f"rank-1 update denominator {abs(denom):.3e} below {RCOND_MIN:.0e}",
            rcond=abs(denom),
        )
    # one n_s^2 temporary: scale the column, not the outer product
    g_new = np.outer((delta / denom) * g[:, k], t_row)
    g_new += g
    return g_new, _channel_from_resolvent(blocks, g_new, r_new)


def complex_to_pairs(z: np.ndarray) -> list:
    """The JSON form of a complex vector: one [re, im] pair per entry."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(z, dtype=complex)]


def pairs_to_complex(pairs) -> np.ndarray:
    """Inverse of complex_to_pairs; anything but a list of [re, im] numbers is a ValueError."""
    try:
        z = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except TypeError:
        kind = type(pairs).__name__
        raise ValueError(f"expected a list of [re, im] number pairs, got a {kind}") from None
    # complex() reads a JSON bool as 0 or 1, so only a pair of zeros and ones can hold one
    if any(bool in map(type, pairs[i]) for i in np.flatnonzero(np.isin(z, (0, 1, 1j, 1 + 1j)))):
        raise ValueError("expected a list of [re, im] number pairs, got a bool in one")
    return z


def system_to_dict(system: ScatteringSystem) -> dict:
    """JSON-ready dict; complex entries as [re, im] pairs, row-major."""
    return {
        "n_total": system.n_total,
        "tx_ports": list(system.tx_ports),
        "rx_ports": list(system.rx_ports),
        "bs_ports": list(system.bs_ports),
        "reference_impedance_ohms": system.reference_impedance,
        "matrix": complex_to_pairs(system.matrix.ravel(order="C")),
    }


def system_from_dict(payload: dict) -> ScatteringSystem:
    """Inverse of system_to_dict; a missing key or a wrong JSON type is a ValueError."""
    keys = ("n_total", "matrix", "tx_ports", "rx_ports", "bs_ports")
    if not isinstance(payload, dict) or not set(keys) <= set(payload):
        raise ValueError(f"a system is a JSON object with the keys {list(keys)}")
    n = _integer(payload["n_total"], "n_total")
    matrix = pairs_to_complex(payload["matrix"])
    if matrix.size != n * n:
        raise ValueError(f"matrix has {matrix.size} entries, expected {n * n}")
    ohms = payload.get("reference_impedance_ohms", 50.0)
    if not isinstance(ohms, numbers.Real) or isinstance(ohms, bool):
        raise ValueError(f"reference_impedance_ohms must be a number, got {ohms!r}")
    return ScatteringSystem(
        n_total=n,
        matrix=matrix.reshape(n, n),
        tx_ports=payload["tx_ports"],
        rx_ports=payload["rx_ports"],
        bs_ports=payload["bs_ports"],
        reference_impedance=ohms,
    )


def save_system(system: ScatteringSystem, path) -> None:
    Path(path).write_text(json.dumps(system_to_dict(system)))


def load_system(path) -> ScatteringSystem:
    """Read a system file; validation (partition, passivity) runs on load."""
    return system_from_dict(json.loads(Path(path).read_text()))
