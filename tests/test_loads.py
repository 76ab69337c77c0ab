"""Load-constraint families: defaults, sampling statistics, the two-state check."""

import json

import numpy as np
import pytest
from scipy import stats

from bsdof.cli import _constraint_from_args, build_parser
from bsdof.errors import InconsistentStateError, UnsupportedOperationError
from bsdof.fd import ChannelMap, discrete_toggle_jacobian
from bsdof.loads import (
    LOAD_MAG_TOL,
    PIN_OFF,
    PIN_ON,
    PM_OFF,
    PM_ON,
    LoadConstraint,
    on_mask,
    sample_loads,
)
from bsdof.streams import substream

N_BIG = 100_000


def test_measured_diode_states():
    pin = LoadConstraint.pin()
    assert pin.on_value == -0.8116 + 0j
    assert pin.off_value == 0.6366 - 0.7712j
    # the published off state rounds to a magnitude a hair above one
    assert 1.0 < abs(pin.off_value) < 1.0 + LOAD_MAG_TOL
    pm = LoadConstraint.pm()
    assert (pm.on_value, pm.off_value) == (1.0 + 0j, -1.0 + 0j)


def test_two_state_samples_stay_in_state_set():
    pin = LoadConstraint.pin()
    r = sample_loads(pin, 500, substream(100))
    assert set(r.tolist()) == {PIN_ON, PIN_OFF}
    pm = LoadConstraint.pm()
    r = sample_loads(pm, 500, substream(101))
    assert set(r.tolist()) == {1.0 + 0j, -1.0 + 0j}


def test_continuous_sample_statistics():
    r = sample_loads(LoadConstraint.uni(), N_BIG, substream(2024))
    assert np.abs(r).max() <= 1.0
    assert abs(np.abs(r).mean() - 0.5) < 0.005
    assert abs(r.mean()) < 0.01


def test_continuous_phase_uniformity():
    r = sample_loads(LoadConstraint.uni(), N_BIG, substream(2024))
    phases = np.mod(np.angle(r), 2 * np.pi)
    ks = stats.kstest(phases, "uniform", args=(0.0, 2 * np.pi))
    # 1% critical value of the one-sample KS statistic: sqrt(ln(2/0.01)/2)/sqrt(n)
    assert ks.statistic < 1.6276 / np.sqrt(N_BIG)


def test_sampling_is_stream_deterministic():
    a = sample_loads(LoadConstraint.pin(), 64, substream(5, 6))
    b = sample_loads(LoadConstraint.pin(), 64, substream(5, 6))
    assert np.array_equal(a, b)


def test_toggle_rejects_bad_inputs():
    # flipping loads needs a two-state family, and every load in one of its states
    channel_map = ChannelMap(lambda r: np.zeros(r.shape[:-1] + (1, 1)))
    with pytest.raises(UnsupportedOperationError):
        discrete_toggle_jacobian(channel_map, np.array([0.5 + 0j]), np.ones(1), LoadConstraint.uni())
    with pytest.raises(InconsistentStateError):
        discrete_toggle_jacobian(channel_map, np.array([0.5 + 0j]), np.ones(1), LoadConstraint.pm())


def test_on_mask_names_the_first_stray_load():
    r = sample_loads(LoadConstraint.pin(), 12, substream(104)).reshape(3, 4)
    assert np.array_equal(on_mask(r, PIN_ON, PIN_OFF), r == PIN_ON)
    stray = r.copy()
    stray[1, 2] = stray[2, 0] = 0.5
    with pytest.raises(InconsistentStateError, match=r"load \(1, 2\) value"):
        on_mask(stray, PIN_ON, PIN_OFF)
    with pytest.raises(InconsistentStateError, match=r"load \(0,\) value"):
        on_mask(np.array([0.5 + 0j]), PM_ON, PM_OFF)


def test_sample_loads_needs_at_least_one_load():
    with pytest.raises(ValueError, match="n_s must be at least 1"):
        sample_loads(LoadConstraint.pin(), 0, substream(105))


def test_custom_two_state_values():
    custom = LoadConstraint.pin(on=0.5j, off=-0.5 + 0j)
    r = sample_loads(custom, 200, substream(103))
    assert set(r.tolist()) <= {0.5j, -0.5 + 0j}
    # magnitude tolerance admits rounded measurements, nothing grosser
    LoadConstraint.pin(on=1.00005 + 0j, off=-0.5 + 0j)
    with pytest.raises(ValueError):
        LoadConstraint.pin(on=1.01 + 0j, off=-0.5 + 0j)
    with pytest.raises(ValueError):
        LoadConstraint.pin(on=0.5 + 0j, off=0.5 + 0j)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), 1.01 + 0j], ids=str)
def test_inadmissible_state_values_are_rejected(bad):
    with pytest.raises(ValueError):
        LoadConstraint.pin(on=bad)
    with pytest.raises(ValueError):
        LoadConstraint.from_dict({"kind": "PIN", "on": [bad.real, bad.imag]})
    with pytest.raises(ValueError):
        LoadConstraint("PM", off_value=bad)
    # the default off state, a few 1e-6 above unit magnitude, stays admissible
    assert LoadConstraint.pin(on=0.5 + 0j).off_value == PIN_OFF


def test_uni_payloads_take_no_state_values():
    assert LoadConstraint.from_dict({"kind": "UNI"}) == LoadConstraint.uni()
    # PM is exactly +1 / -1, so it takes no custom states either
    for kind in ("UNI", "PM"):
        for payload in ({"kind": kind, "on": [0.5, 0.0]}, {"kind": kind, "off": [0.5]}):
            with pytest.raises(ValueError, match=f"{kind} constraint takes no on/off values"):
                LoadConstraint.from_dict(payload)


def test_dict_roundtrip():
    # the payloads that the CLI writes into config.json
    cases = [
        ("pin", [], {"kind": "PIN"}, LoadConstraint.pin()),
        ("pm", [], {"kind": "PM"}, LoadConstraint.pm()),
        ("uni", [], {"kind": "UNI"}, LoadConstraint.uni()),
        (
            "pin",
            ["--on=0.5,0.25", "--off=-0.5"],
            {"kind": "PIN", "on": [0.5, 0.25], "off": [-0.5]},
            LoadConstraint.pin(0.5 + 0.25j, -0.5),
        ),
    ]
    for kind, states, expected, constraint in cases:
        argv = ["bs-dist", "--system", "s.json", "--out-dir", "-", "--constraint", kind, *states]
        payload = json.loads(json.dumps(_constraint_from_args(build_parser().parse_args(argv))))
        assert payload == expected
        assert LoadConstraint.from_dict(payload) == constraint
