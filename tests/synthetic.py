"""The synthetic environments that the unit tests draw their systems from."""

import math

import numpy as np

from bsdof.environment import EnvironmentSpec, synth_environment
from bsdof.network import ScatteringSystem, extract_blocks


def system_for(n_t, n_r, n_s, seed, eta=0.9, mc=1.0):
    return synth_environment(EnvironmentSpec(n_t, n_r, n_s, eta, mc, seed=seed))


def blocks_for(n_t, n_r, n_s, seed, eta=0.9, mc=1.0):
    return extract_blocks(system_for(n_t, n_r, n_s, seed, eta, mc))


def flat_resonant_rank2_system():
    """PM all-ON resonates, as in test_sampling.resonant_system, but two receive
    rows orthogonal to the coupling make M vary between samples."""
    n = 11
    u = np.ones(8) / math.sqrt(8.0)
    rows = np.zeros((2, 8))
    rows[0, :2] = rows[1, 2:4] = [1.0, -1.0]
    matrix = np.zeros((n, n), dtype=complex)
    tx, rx, bs = (0,), (1, 2), tuple(range(3, 11))
    matrix[np.ix_(bs, tx)] = 0.25 * (rows[0] + rows[1])[:, None]
    matrix[np.ix_(rx, bs)] = np.diag([0.3, 0.4]) @ rows / math.sqrt(2.0)
    matrix[np.ix_(bs, bs)] = (1.0 - 1e-13) * np.outer(u, u)
    return ScatteringSystem(n_total=n, matrix=matrix, tx_ports=tx, rx_ports=rx, bs_ports=bs)
