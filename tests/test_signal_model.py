"""Transmit-order payloads, interferer descriptions and payload draws."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mskcollide import (BIPOLAR_CHIP_TABLE, ConfigError, ExperimentConfig,
                        InterfererParams, interference_contribution)
from mskcollide.montecarlo import _point_amplitudes
from mskcollide.signal_model import draw_payloads


def _unit(bits):
    return InterfererParams(1.0, 0.0, 0.0, bits)


def test_branches_read_even_and_odd_positions():
    # at zero offsets a unit interferer's branches read back its even
    # (in-phase) and odd (quadrature) transmit positions
    u = _unit([+1, +1, +1, -1])
    assert [interference_contribution(u, k, "I") for k in range(2)] == [1, 1]
    assert [interference_contribution(u, k, "Q") for k in range(2)] == [1, -1]


def test_one_bit_payload_has_no_quadrature_bit():
    u = _unit([+1])
    assert interference_contribution(u, 0, "I") == 1.0
    assert interference_contribution(u, 0, "Q") == 0.0


def test_empty_payload_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        _unit([])


def test_zero_offsets_read_payload_back():
    # a unit interferer at zero offsets contributes exactly its bits, so the
    # one-row closed form reads the payload back in transmit order
    rng = np.random.default_rng(42)
    bits = rng.integers(0, 2, size=64) * 2 - 1
    u = _unit(bits)
    back = [interference_contribution(u, j // 2, "IQ"[j % 2]) for j in range(64)]
    assert back == bits.tolist()


def test_non_antipodal_bits_rejected():
    with pytest.raises(ValueError):
        _unit([1, 0, -1])
    with pytest.raises(ValueError):
        _unit([2, 1])


def test_two_dimensional_bits_rejected():
    with pytest.raises(ValueError, match="one-dimensional"):
        _unit([[1, -1], [1, 1]])


def test_silence_outside_payload():
    u = _unit([1, -1, 1, -1])
    assert interference_contribution(u, -1, "I") == 0.0
    assert interference_contribution(u, 2, "I") == 0.0
    assert interference_contribution(u, 5, "Q") == 0.0
    assert interference_contribution(u, 0, "I") == 1.0
    assert interference_contribution(u, 1, "Q") == -1.0


def test_interferer_bits_are_a_read_only_copy():
    bits = np.array([1, -1, 1, -1])
    u = _unit(bits)
    assert u.bits.dtype == np.int8 and not u.bits.flags.writeable
    with pytest.raises(ValueError):
        u.bits[0] = -1
    bits[0] = -1  # the caller's array is copied, not shared
    assert u.bits[0] == 1


def test_interferer_params_normalize_phase():
    u = InterfererParams(amplitude=2.0, tau=0.5, phi_c=-math.pi, bits=[1, -1])
    assert 0.0 <= u.phi_c < 2 * math.pi
    assert u.phi_c == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        InterfererParams(amplitude=0.0, tau=0.0, phi_c=0.0, bits=[1, -1])


@pytest.mark.parametrize("field, value", [
    ("amplitude", math.inf), ("tau", math.nan), ("tau", math.inf), ("tau", -math.inf),
    ("phi_c", math.inf), ("phi_c", -math.inf), ("phi_c", math.nan),
    *(pytest.param(field, 10**400, id=f"{field}-int-overflow")
      for field in ("amplitude", "tau", "phi_c")),
    ("amplitude", "1"), ("tau", "0"), ("phi_c", None), ("amplitude", True)])
def test_interferer_params_reject_non_finite(field, value):
    # each would otherwise give NaN soft values or fail later inside math.floor;
    # an integer too large for a float is not finite either, and a bool or
    # a non-number is no number at all
    fields = {"amplitude": 1.0, "tau": 0.0, "phi_c": 0.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        InterfererParams(bits=[1, -1], **fields)


def test_scenario_sir():
    # the engine's interferer amplitudes realize the point's SIR, however
    # many interferers share it
    for sir_db in (-10.0, 3.0):
        for n in (1, 2, 5):
            cfg = ExperimentConfig(n_interferers=n)
            amplitudes = _point_amplitudes(cfg, sir_db)
            sir = 1.0 / sum(a**2 for a in amplitudes)
            assert 10.0 * math.log10(sir) == pytest.approx(sir_db)
    assert _point_amplitudes(ExperimentConfig(n_interferers=0), 0.0) == ()


def test_draw_payloads_identical_uncoded():
    rng = np.random.default_rng(1)
    soi, interferer = draw_payloads(rng, "identical", False, 64, 1, 3)
    assert soi is interferer
    symbols, chips = soi
    assert symbols is None and chips.shape == (3, 64)
    assert set(np.unique(chips)) == {-1, 1}


def test_draw_payloads_coded_chip_counts():
    rng = np.random.default_rng(2)
    (symbols, chips), (_, interferer) = draw_payloads(rng, "independent", True, 64, 1, 3)
    # 16 symbols of 32 chips: 512 chips per packet
    assert symbols.shape == (3, 16) and chips.shape == (3, 512)
    assert np.array_equal(chips, BIPOLAR_CHIP_TABLE[symbols].reshape(3, 512))
    assert interferer.shape == (3, 512)
    assert not np.array_equal(chips, interferer)


def test_draw_payloads_seeded_reproducibility():
    a = draw_payloads(np.random.default_rng(7), "independent", False, 64, 1, 2)
    b = draw_payloads(np.random.default_rng(7), "independent", False, 64, 1, 2)
    assert np.array_equal(a[0][1], b[0][1])
    assert np.array_equal(a[1][1], b[1][1])


def test_config_rejects_bad_payload_fields():
    valid = ExperimentConfig(tau_grid=(0.0,), sir_db_grid=(0.0,))
    for fields in ({"coding": "hdd", "payload_bits": 66}, {"payload_bits": 0},
                   {"payload_mode": "both"}):
        with pytest.raises(ConfigError):
            ExperimentConfig(tau_grid=(0.0,), sir_db_grid=(0.0,), **fields)
        with pytest.raises(ConfigError):
            replace(valid, **fields)
