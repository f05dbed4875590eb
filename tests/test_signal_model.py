"""Multiplexing, payload streams, interferer descriptions and payload draws."""

import math

import numpy as np
import pytest

from mskcollide import (BIPOLAR_CHIP_TABLE, ConfigError, ExperimentConfig,
                        InterfererParams, IqStream, interference_contribution,
                        multiplex_bits)
from mskcollide.montecarlo import _point_amplitudes
from mskcollide.signal_model import draw_payloads


def test_multiplex_even_odd_split():
    s = multiplex_bits([+1, +1, +1, -1])
    assert list(s.i_bits) == [1, 1]
    assert list(s.q_bits) == [1, -1]


def test_multiplex_single_bit():
    s = multiplex_bits([+1])
    assert list(s.i_bits) == [1]
    assert len(s.q_bits) == 0


def test_multiplex_empty_payload_rejected():
    with pytest.raises(ValueError, match="empty payload"):
        multiplex_bits([])


def test_multiplex_demultiplex_round_trip():
    # a unit interferer at zero offsets contributes exactly its bits, so the
    # one-row closed form reads the multiplexed stream back in transmit order
    rng = np.random.default_rng(42)
    bits = rng.integers(0, 2, size=64) * 2 - 1
    u = InterfererParams(1.0, 0.0, 0.0, multiplex_bits(bits))
    back = [interference_contribution(u, j // 2, "IQ"[j % 2]) for j in range(64)]
    assert back == bits.tolist()


def test_non_antipodal_bits_rejected():
    with pytest.raises(ValueError):
        multiplex_bits([1, 0, -1])
    with pytest.raises(ValueError):
        multiplex_bits([2, 1])


def test_stream_silence_outside_span():
    s = multiplex_bits([1, -1, 1, -1])
    assert s.i_bit(-1) == 0
    assert s.i_bit(2) == 0
    assert s.q_bit(5) == 0
    assert s.i_bit(0) == 1
    assert s.q_bit(1) == -1


def test_stream_length_mismatch_rejected():
    with pytest.raises(ValueError):
        IqStream(i_bits=[1, 1, 1], q_bits=[1])


def test_stream_is_immutable():
    s = multiplex_bits([1, -1, 1, -1])
    with pytest.raises(ValueError):
        s.i_bits[0] = -1


def test_interferer_params_normalize_phase():
    payload = multiplex_bits([1, -1])
    u = InterfererParams(amplitude=2.0, tau=0.5, phi_c=-math.pi, payload=payload)
    assert 0.0 <= u.phi_c < 2 * math.pi
    assert u.phi_c == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        InterfererParams(amplitude=0.0, tau=0.0, phi_c=0.0, payload=payload)


def test_scenario_sir():
    # the engine's interferer amplitudes realize the point's SIR, whatever
    # the power split
    for sir_db in (-10.0, 3.0):
        for layout in ("single", "equal_split"):
            cfg = ExperimentConfig(n_interferers=2, interferer_power_split=layout)
            amplitudes = _point_amplitudes(cfg, sir_db)
            sir = 1.0 / sum(a**2 for a in amplitudes)
            assert 10.0 * math.log10(sir) == pytest.approx(sir_db)
    assert _point_amplitudes(ExperimentConfig(n_interferers=0), 0.0) == ()


def test_make_payload_identical_uncoded():
    rng = np.random.default_rng(1)
    soi, interferer = draw_payloads(rng, "identical", False, 64, 1, 3)
    assert soi is interferer
    symbols, chips = soi
    assert symbols is None and chips.shape == (3, 64)
    assert set(np.unique(chips)) == {-1, 1}


def test_make_payload_coded_chip_counts():
    rng = np.random.default_rng(2)
    (symbols, chips), (_, interferer) = draw_payloads(rng, "independent", True, 64, 1, 3)
    # 16 symbols of 32 chips: 512 chips per packet
    assert symbols.shape == (3, 16) and chips.shape == (3, 512)
    assert np.array_equal(chips, BIPOLAR_CHIP_TABLE[symbols].reshape(3, 512))
    assert interferer.shape == (3, 512)
    assert not np.array_equal(chips, interferer)


def test_make_payload_seeded_reproducibility():
    a = draw_payloads(np.random.default_rng(7), "independent", False, 64, 1, 2)
    b = draw_payloads(np.random.default_rng(7), "independent", False, 64, 1, 2)
    assert np.array_equal(a[0][1], b[0][1])
    assert np.array_equal(a[1][1], b[1][1])


def test_make_payload_validation():
    for fields in ({"coding": "hdd", "payload_bits": 66}, {"payload_bits": 0},
                   {"payload_mode": "both"}):
        with pytest.raises(ConfigError):
            ExperimentConfig(tau_grid=(0.0,), sir_db_grid=(0.0,), **fields).validate()
