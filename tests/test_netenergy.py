from __future__ import annotations

import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satmist.config import parse_config
from satmist.errors import ConfigurationError
from satmist.netenergy import (
    DEFAULT_RADIO,
    RadioParams,
    energy_db,
    rx_energy,
    tx_energy,
)


def test_default_radio_constants():
    assert DEFAULT_RADIO.e_elec == 5e-8
    assert DEFAULT_RADIO.eps_fs == 1e-11
    assert DEFAULT_RADIO.eps_mp == 1.3e-15


def test_crossover_is_sqrt_of_amplifier_ratio():
    assert DEFAULT_RADIO.crossover_m == math.sqrt(1e-11 / 1.3e-15)
    assert DEFAULT_RADIO.crossover_m == pytest.approx(87.7058, abs=1e-4)


def test_cached_crossover_leaves_equality_and_pickles_unchanged():
    radio = RadioParams(eps_mp=1.2e-15)
    fresh = pickle.dumps(radio)
    assert radio.crossover_m == math.sqrt(1e-11 / 1.2e-15)
    assert pickle.dumps(radio) == fresh
    assert radio == RadioParams(eps_mp=1.2e-15) == pickle.loads(fresh)
    assert hash(radio) == hash(RadioParams(eps_mp=1.2e-15))
    assert replace(radio, eps_fs=2e-11).crossover_m == math.sqrt(2e-11 / 1.2e-15)


def test_tx_energy_zero_distance_is_electronics_only():
    assert tx_energy(1, 0.0, DEFAULT_RADIO) == 5e-8


def test_tx_energy_free_space_hand_value():
    # 1000 bits at 50 m, below crossover: 1000 * (5e-8 + 1e-11 * 2500)
    expected = 1000 * (5e-8 + 1e-11 * 50.0 * 50.0)
    assert tx_energy(1000, 50.0, DEFAULT_RADIO) == pytest.approx(expected, rel=1e-9)


def test_tx_energy_multipath_hand_value():
    # 8e6 bits at 1e5 m: amplifier term 1.3e-15 * (1e5)^4 dominates
    got = tx_energy(8e6, 1e5, DEFAULT_RADIO)
    assert got == pytest.approx(1.04e12, abs=1e3)
    assert got == pytest.approx(8e6 * (5e-8 + 1.3e-15 * 1e20), rel=1e-9)


def test_tx_energy_continuous_at_crossover():
    d0 = DEFAULT_RADIO.crossover_m
    fs = 1.0 * (5e-8 + 1e-11 * d0 * d0)
    mp = 1.0 * (5e-8 + 1.3e-15 * d0 ** 4)
    assert fs == pytest.approx(mp, rel=1e-12)
    just_below = tx_energy(1.0, math.nextafter(d0, 0.0), DEFAULT_RADIO)
    at_d0 = tx_energy(1.0, d0, DEFAULT_RADIO)
    assert at_d0 == pytest.approx(just_below, rel=1e-9)


def test_rx_energy_hand_values():
    assert rx_energy(0, DEFAULT_RADIO) == 0.0
    assert rx_energy(1, DEFAULT_RADIO) == 5e-8
    assert rx_energy(2e7, DEFAULT_RADIO) == pytest.approx(1.0, rel=1e-12)


def test_energy_db_identities():
    assert energy_db(1.0) == 0.0
    assert energy_db(1e17) == pytest.approx(170.0, abs=1e-12)
    assert energy_db(10 ** 16.5) == pytest.approx(165.0, abs=1e-9)


def test_energy_db_rejects_non_positive():
    with pytest.raises(ValueError):
        energy_db(0.0)
    with pytest.raises(ValueError):
        energy_db(-1.0)


def test_radio_params_reject_non_positive_constants():
    for line in ("radio.e_elec=0", "radio.eps_fs=-1e-11", "radio.eps_mp=0"):
        with pytest.raises(ConfigurationError, match=line.split("=")[0]):
            parse_config(line + "\n")


def test_link_params_reject_non_positive():
    for line in ("link.bandwidth_bps=0", "link.speed_mps=-1"):
        with pytest.raises(ConfigurationError, match=line.split("=")[0]):
            parse_config(line + "\n")


@given(
    bits=st.floats(min_value=0, max_value=1e12),
    d1=st.floats(min_value=0, max_value=1e8),
    d2=st.floats(min_value=0, max_value=1e8),
)
def test_tx_energy_monotone_in_distance(bits, d1, d2):
    lo, hi = sorted((d1, d2))
    assert tx_energy(bits, lo, DEFAULT_RADIO) <= tx_energy(bits, hi, DEFAULT_RADIO)


@given(
    a=st.floats(min_value=0, max_value=1e9),
    b=st.floats(min_value=0, max_value=1e9),
    d=st.floats(min_value=0, max_value=1e8),
)
def test_tx_energy_linear_in_bits(a, b, d):
    whole = tx_energy(a + b, d, DEFAULT_RADIO)
    parts = tx_energy(a, d, DEFAULT_RADIO) + tx_energy(b, d, DEFAULT_RADIO)
    assert whole == pytest.approx(parts, rel=1e-12, abs=1e-300)


@given(x=st.floats(min_value=1e-100, max_value=1e100))
def test_energy_db_decade_shift(x):
    assert energy_db(10 * x) == pytest.approx(energy_db(x) + 10.0, abs=1e-12)
