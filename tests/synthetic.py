"""The synthetic environments that the unit tests draw their systems from."""

from bsdof.environment import EnvironmentSpec, synth_environment
from bsdof.network import extract_blocks


def system_for(n_t, n_r, n_s, seed, eta=0.9, mc=1.0):
    return synth_environment(EnvironmentSpec(n_t, n_r, n_s, eta, mc, seed=seed))


def blocks_for(n_t, n_r, n_s, seed, eta=0.9, mc=1.0):
    return extract_blocks(system_for(n_t, n_r, n_s, seed, eta, mc))
