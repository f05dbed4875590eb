"""Transmit-order payloads, batches of interferer draws and payload draws."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mskcollide import (BIPOLAR_CHIP_TABLE, ConfigError, Draws, ExperimentConfig,
                        interference_contribution)
from mskcollide.montecarlo import _point_amplitudes
from mskcollide.signal_model import draw_payloads


def _unit(bits, ks=(0,)):
    """A unit interferer at zero offsets, drawn at each bit index of ks."""
    return Draws.of([(bits, 1.0, 0.0, 0.0, k) for k in ks])


def test_branches_read_even_and_odd_positions():
    # at zero offsets a unit interferer's branches read back its even
    # (in-phase) and odd (quadrature) transmit positions
    values = interference_contribution(_unit([+1, +1, +1, -1], ks=range(2)))
    assert values.tolist() == [[1, 1], [1, -1]]


def test_one_bit_payload_has_no_quadrature_bit():
    assert interference_contribution(_unit([+1])).tolist() == [[1.0, 0.0]]


def test_empty_payload_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        _unit([])


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="the batch is empty"):
        Draws.of([])


def test_zero_offsets_read_payload_back():
    # a unit interferer at zero offsets contributes exactly its bits, so the
    # closed form reads the payload back in transmit order
    rng = np.random.default_rng(42)
    bits = rng.integers(0, 2, size=64) * 2 - 1
    back = interference_contribution(_unit(bits, ks=range(32)))
    assert back.ravel().tolist() == bits.tolist()


def test_non_antipodal_bits_rejected():
    for bits in ([1, 0, -1], [2, 1]):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            _unit(bits)
    # one bad row fails the whole batch
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        Draws.of([([1, -1], 1.0, 0.0, 0.0, 0), ([1, 0], 1.0, 0.0, 0.0, 0)])


def test_two_dimensional_bits_rejected():
    with pytest.raises(ValueError, match="one-dimensional"):
        _unit([[1, -1], [1, 1]])


def test_silence_outside_payload():
    values = interference_contribution(_unit([1, -1, 1, -1], ks=(-1, 2, 5, 0, 1)))
    assert values[:3].tolist() == [[0.0, 0.0]] * 3
    assert values[3, 0] == 1.0 and values[4, 1] == -1.0


def test_interferer_bits_are_a_read_only_copy():
    bits = np.array([1, -1, 1, -1])
    u = _unit(bits)
    assert u.bits.dtype == np.float64 and not u.bits.flags.writeable
    with pytest.raises(ValueError):
        u.bits[0, 1, 0] = -1
    bits[0] = -1  # the caller's array is copied, not shared
    assert u.bits[0, 1, 0] == 1


def test_interferer_params_normalize_phase():
    u = Draws.of([([1, -1], 2.0, 0.5, -math.pi, 0)])
    assert 0.0 <= u.phi_c[0] < 2 * math.pi
    assert u.phi_c[0] == pytest.approx(math.pi)
    with pytest.raises(ValueError, match="amplitude must be positive"):
        Draws.of([([1, -1], 0.0, 0.0, 0.0, 0)])


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
        Draws.of([([1, -1], fields["amplitude"], fields["tau"], fields["phi_c"], 0)])


@pytest.mark.parametrize("k", [True, 1.0, 1.5, "1", None])
def test_bit_index_must_be_an_integer(k):
    # True would read bit 1
    with pytest.raises(ValueError, match="bit index must be an integer"):
        Draws.of([([1, -1, -1, 1], 1.0, 0.0, 0.0, k)])


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


@pytest.mark.parametrize("mode", ["independent", "identical"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (13, 5), (1000, 64)])
def test_uncoded_draw_is_the_int8_draw(mode, shape):
    # the bits of one uint32 draw are those of numpy's bounded int8 draw,
    # and the stream goes on from the same place: a numpy that moves its
    # integer algorithm fails here instead of moving every table's bytes
    packets, n_bits = shape
    for seed in (0, 1, 7, 2026, 2**63 + 5):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        senders = draw_payloads(got_rng, mode, False, n_bits, 2, packets)
        want = [want_rng.integers(0, 2, size=shape, dtype=np.int8) * 2 - 1
                for _ in range(1 if mode == "identical" else 3)]
        if mode == "identical":
            want *= 3
        assert len(senders) == len(want)
        for (symbols, chips), expected in zip(senders, want):
            assert symbols is None and chips.dtype == np.int8 and chips.flags.c_contiguous
            assert chips.shape == shape and np.array_equal(chips, expected)
        assert got_rng.uniform() == want_rng.uniform()


def test_config_rejects_bad_payload_fields():
    valid = ExperimentConfig(tau_grid=(0.0,), sir_db_grid=(0.0,))
    for fields in ({"coding": "hdd", "payload_bits": 66}, {"payload_bits": 0},
                   {"payload_mode": "both"}):
        with pytest.raises(ConfigError):
            ExperimentConfig(tau_grid=(0.0,), sir_db_grid=(0.0,), **fields)
        with pytest.raises(ConfigError):
            replace(valid, **fields)
