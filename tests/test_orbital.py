from __future__ import annotations

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from satmist.config import SimulationConfig, validate
from satmist.errors import ConfigurationError
from satmist.layers import Layer
from satmist.orbital import (
    MU_EARTH_M3_S2,
    R_EARTH_M,
    TRACE_HEADER,
    ConstellationSpec,
    OrbitPositions,
    OrbitalElements,
    Phasing,
    angular_rate_rad_s,
    build_constellation,
    constellation_key,
    dump_trace,
    orbit_point,
    orbital_period_s,
)
from support import position_at

LEO = OrbitalElements(altitude_m=400_000.0)


def test_kepler_period_at_400_km():
    # independent oracle: T = 2*pi*sqrt(a^3/mu) with a = 6371 km + 400 km
    a = 6_771_000.0
    expected = 2.0 * math.pi * math.sqrt(a ** 3 / 3.986004418e14)
    got = orbital_period_s(LEO)
    assert got == pytest.approx(expected, rel=1e-12)
    assert abs(got - 5545.0) < 1.0


def test_position_at_zero_angles_sits_on_x_axis():
    p = position_at(LEO, 0.0)
    assert p == (6_771_000.0, 0.0, 0.0)


def test_orbit_radius_is_conserved():
    e = OrbitalElements(altitude_m=400_000.0, inclination_rad=1.0,
                        raan_rad=2.0, phase_rad=3.0)
    a = R_EARTH_M + 400_000.0
    for t in (0.0, 17.3, 1000.0, 5544.0, 123456.0):
        p = position_at(e, t)
        assert math.hypot(*p) == pytest.approx(a, rel=1e-12)


def test_position_periodicity():
    e = OrbitalElements(altitude_m=400_000.0, inclination_rad=0.9,
                        raan_rad=0.4, phase_rad=1.7)
    period = orbital_period_s(e)
    p0 = position_at(e, 0.0)
    p1 = position_at(e, period)
    a = e.semi_major_axis_m
    assert math.dist(p0, p1) <= 1e-6 * a


def test_position_against_rotation_matrix_oracle():
    e = OrbitalElements(altitude_m=1_234_000.0, inclination_rad=0.7,
                        raan_rad=2.1, phase_rad=0.3)
    t = 321.5
    a = 6_371_000.0 + 1_234_000.0
    theta = 0.3 + math.sqrt(3.986004418e14 / a ** 3) * t
    in_plane = np.array([a * math.cos(theta), a * math.sin(theta), 0.0])
    ci, si = math.cos(0.7), math.sin(0.7)
    co, so = math.cos(2.1), math.sin(2.1)
    rot_x = np.array([[1, 0, 0], [0, ci, -si], [0, si, ci]])
    rot_z = np.array([[co, -so, 0], [so, co, 0], [0, 0, 1]])
    expected = rot_z @ rot_x @ in_plane
    got = position_at(e, t)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-6)


def test_zero_inclination_stays_equatorial():
    e = OrbitalElements(altitude_m=500_000.0, inclination_rad=0.0,
                        raan_rad=1.0, phase_rad=2.0)
    for t in (0.0, 100.0, 4000.0):
        assert position_at(e, t)[2] == pytest.approx(0.0, abs=1e-9)


def test_altitude_floor_enforced():
    with pytest.raises(ValueError):
        OrbitalElements(altitude_m=399_999.0)
    with pytest.raises(ValueError):
        OrbitalElements(altitude_m=400_000.0, inclination_rad=-0.1)
    with pytest.raises(ValueError):
        OrbitalElements(altitude_m=400_000.0, raan_rad=2 * math.pi)


def test_single_satellite_walker_has_zero_phase():
    spec = ConstellationSpec(mist=1, edge_dc=0, cloud=0, planes=1)
    layered = build_constellation(spec)
    assert len(layered) == 1
    layer, elements = layered[0]
    assert layer is Layer.MIST
    assert elements.phase_rad == 0.0
    assert elements.raan_rad == 0.0


def test_walker_four_satellites_two_planes():
    spec = ConstellationSpec(mist=4, edge_dc=0, cloud=0, planes=2)
    layered = build_constellation(spec)
    raans = sorted({e.raan_rad for _, e in layered})
    assert raans == pytest.approx([0.0, math.pi])
    for raan in raans:
        phases = sorted(e.phase_rad for _, e in layered if e.raan_rad == raan)
        assert phases == pytest.approx([0.0, math.pi])


def test_full_scale_counts():
    spec = ConstellationSpec(mist=1000, edge_dc=24, cloud=18)
    layered = build_constellation(spec)
    assert len(layered) == 1042
    counts = {layer: 0 for layer in Layer}
    for layer, _ in layered:
        counts[layer] += 1
    assert counts == {Layer.MIST: 1000, Layer.EDGE_DC: 24, Layer.CLOUD: 18}


def test_layer_major_output_order():
    spec = ConstellationSpec(mist=3, edge_dc=2, cloud=1)
    layers = [layer for layer, _ in build_constellation(spec)]
    assert layers == [Layer.MIST] * 3 + [Layer.EDGE_DC] * 2 + [Layer.CLOUD]


def test_build_constellation_is_deterministic():
    spec = ConstellationSpec(mist=7, edge_dc=3, cloud=2,
                             phasing=Phasing.RANDOM_UNIFORM, rng_seed=42)
    assert build_constellation(spec) == build_constellation(spec)


# per ConstellationSpec field, values to swap in one at a time
_KEY_VARIANTS = {
    "mist": [7, 0],
    "edge_dc": [4, 0],
    "cloud": [5],
    "altitude_by_layer": [{Layer.MIST: 500_000.0}, {Layer.EDGE_DC: 2_500_000.0},
                          {Layer.CLOUD: 9_000_000.0}],
    "planes": [4, 1],
    "inclination_rad": [0.5],
    "phasing": list(Phasing),
    "rng_seed": [2, 42],
}


@pytest.mark.parametrize("base", [
    ConstellationSpec(mist=6, edge_dc=3, cloud=2, planes=3),
    ConstellationSpec(mist=6, edge_dc=3, cloud=2, planes=3, phasing=Phasing.RANDOM_UNIFORM),
    ConstellationSpec(mist=6, edge_dc=0, cloud=2, planes=3),
    ConstellationSpec(mist=6, edge_dc=0, cloud=2, phasing=Phasing.RANDOM_UNIFORM),
], ids=["walker", "random", "walker_no_edge", "random_no_edge"])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ConstellationSpec)])
def test_constellation_key_differs_exactly_when_the_constellation_does(base, name):
    # sweep.run_sweep shares one geometry among runs of equal keys, so equal
    # keys must build equal constellations; unequal ones should not
    for value in _KEY_VARIANTS[name]:
        if name == "altitude_by_layer":
            value = {**base.altitude_by_layer, **value}
        spec = dataclasses.replace(base, **{name: value})
        same_key = constellation_key(spec) == constellation_key(base)
        assert same_key == (build_constellation(spec) == build_constellation(base)), (name, value)


def test_constellation_key_reads_the_seed_under_random_phasing_only():
    walker = ConstellationSpec(mist=6, edge_dc=3, cloud=2, rng_seed=1)
    shuffled = ConstellationSpec(mist=6, edge_dc=3, cloud=2, rng_seed=1,
                                 phasing=Phasing.RANDOM_UNIFORM)
    for spec in (walker, shuffled):
        hash(constellation_key(spec))
    assert constellation_key(walker) == constellation_key(dataclasses.replace(walker, rng_seed=2))
    assert constellation_key(shuffled) != constellation_key(
        dataclasses.replace(shuffled, rng_seed=2))


def test_constellation_key_ignores_the_altitude_mapping_order():
    spec = ConstellationSpec(mist=6, edge_dc=3, cloud=2)
    reversed_order = dict(reversed(list(spec.altitude_by_layer.items())))
    assert list(reversed_order) != list(spec.altitude_by_layer)
    assert constellation_key(dataclasses.replace(spec, altitude_by_layer=reversed_order)) \
        == constellation_key(spec)


def test_random_uniform_respects_altitude_and_angle_ranges():
    spec = ConstellationSpec(mist=50, edge_dc=5, cloud=5,
                             phasing=Phasing.RANDOM_UNIFORM, rng_seed=9)
    for layer, e in build_constellation(spec):
        assert e.altitude_m >= 400_000.0
        for angle in (e.inclination_rad, e.raan_rad, e.phase_rad):
            assert 0.0 <= angle < 2 * math.pi


def test_zero_total_satellites_rejected():
    with pytest.raises(ConfigurationError, match="at least one satellite"):
        validate(SimulationConfig(constellation=ConstellationSpec(mist=0, edge_dc=0, cloud=0)))
    with pytest.raises(ConfigurationError, match="non-negative"):
        validate(SimulationConfig(constellation=ConstellationSpec(mist=-1, edge_dc=2, cloud=0)))


def test_orbit_positions_matches_scalar_propagator():
    spec = ConstellationSpec(mist=6, edge_dc=2, cloud=1)
    layered = build_constellation(spec)
    provider = OrbitPositions([e for _, e in layered])
    assert len(provider) == 9
    for t in (0.0, 55.5, 1234.0):
        block = provider.positions_all(t)
        for i, (_, e) in enumerate(layered):
            p = position_at(e, t)
            assert np.allclose(block[i], p, rtol=1e-12, atol=1e-6)
            assert provider.position_one(i, t) == p


def _bits(rows) -> list[tuple[str, ...]]:
    # float.hex tells -0.0 from 0.0, which == does not
    return [tuple(map(float.hex, row)) for row in rows]


_POSITION_SPECS = pytest.mark.parametrize("spec", [
    ConstellationSpec(),
    ConstellationSpec(mist=18, edge_dc=5, cloud=3, planes=8),
    ConstellationSpec(mist=40, edge_dc=6, cloud=4, phasing=Phasing.RANDOM_UNIFORM, rng_seed=5),
], ids=["walker_default", "walker_uneven_planes", "random_uniform"])


@_POSITION_SPECS
def test_positions_at_equals_orbit_point_bit_for_bit(spec):
    # satellite ids[i] at times[i], over every (id, t) drawn here, repeats and the
    # last satellite among them
    provider = OrbitPositions([e for _, e in build_constellation(spec)])
    rows_of = provider._by_satellite
    n, last = len(provider), len(provider) - 1
    rng = np.random.default_rng(11)
    drawn = []
    for t in rng.uniform(0.0, 600.0, 300).tolist():
        for size in (0, 1, 2, 3, 19, 24):
            ids = rng.integers(0, n, size).tolist()
            if size:
                ids[-1] = last
            if size >= 3:
                ids[0] = ids[1]  # a repeat
            drawn += [(i, t) for i in ids]
    rows = [orbit_point(rows_of[i], t) for i, t in drawn]
    ids, times = map(np.array, zip(*drawn))
    assert _bits(np.transpose(provider.positions_at(ids, times)).tolist()) == _bits(rows)
    x, y, z = provider.positions_at(ids[:50], times[:7, None])  # broadcast: (7, 50)
    for k in range(7):
        assert _bits(np.transpose([x[k], y[k], z[k]]).tolist()) == \
            _bits([orbit_point(rows_of[i], float(times[k])) for i in ids[:50].tolist()])


@_POSITION_SPECS
def test_positions_over_equals_orbit_point_and_the_reference_bit_for_bit(spec):
    # a one-time vector first, then vectors longer and shorter than any before it,
    # so the buffers are made, remade and read in part; positions_all is the
    # one-time view, read between the calls
    elements = [e for _, e in build_constellation(spec)]
    provider = OrbitPositions(elements)
    rows_of = provider._by_satellite
    rng = np.random.default_rng(17)
    for m in (1, 12, 5, 30, 1, 30):
        times = rng.uniform(0.0, 600.0, m).tolist()
        expected = [[orbit_point(row, t) for row in rows_of] for t in times]
        assert [_bits(row) for row in expected] == \
            [_bits([position_at(e, t) for e in elements]) for t in times]
        over = provider.positions_over(np.array(times))
        assert over.shape == (3, m, len(provider))
        assert [_bits(np.transpose(over[:, i]).tolist()) for i in range(m)] == \
            [_bits(row) for row in expected]
        assert _bits(provider.positions_all(times[0]).tolist()) == _bits(expected[0])
        assert _bits([provider.position_one(i, times[-1]) for i in range(len(provider))]) == \
            _bits(expected[-1])


def test_libm_cos_sin_equal_numpy_cos_sin_on_orbit_angles():
    layered = build_constellation(ConstellationSpec())
    rate = np.array([angular_rate_rad_s(e) for _, e in layered])
    phase = np.array([e.phase_rad for _, e in layered])
    for t in np.random.default_rng(13).uniform(0.0, 600.0, 300).tolist():
        theta = rate * t + phase
        for name, libm, vectorised in (("cos", math.cos, np.cos), ("sin", math.sin, np.sin)):
            assert _bits([list(map(libm, theta.tolist()))]) == _bits([vectorised(theta).tolist()]), (
                f"math.{name} and np.{name} differ on orbit angles at t={t!r}: "
                "orbital.orbits_apart, behind _Distances.pair, assumes numpy's "
                "float64 cos and sin are the C library's, so its distances no "
                "longer equal the distance column's bit for bit"
            )


def test_altitude_floor_holds_over_a_period():
    spec = ConstellationSpec(mist=5, edge_dc=2, cloud=1,
                             phasing=Phasing.RANDOM_UNIFORM, rng_seed=3)
    layered = build_constellation(spec)
    provider = OrbitPositions([e for _, e in layered])
    period = orbital_period_s(layered[0][1])
    for t in range(0, int(period) + 1, 60):
        radii = np.linalg.norm(provider.positions_all(float(t)), axis=1)
        assert (radii - R_EARTH_M >= 400_000.0 - 1e-6).all()


def test_dump_then_load_round_trip():
    spec = ConstellationSpec(mist=3, edge_dc=1, cloud=1)
    layered = build_constellation(spec)
    provider = OrbitPositions([e for _, e in layered])
    times = [0.0, 30.0, 60.0]
    buf = io.StringIO()
    dump_trace(buf, provider, [str(i) for i in range(5)], times)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert tuple(rows[0]) == TRACE_HEADER
    expected = [(str(i), t, *position_at(e, t)) for i, (_, e) in enumerate(layered) for t in times]
    got = [(sat_id, *map(float, values)) for sat_id, *values in rows[1:]]
    assert got == expected


def test_orbital_period_uses_gravitational_parameter():
    # doubling altitude grows the period as a^(3/2)
    lo = orbital_period_s(OrbitalElements(altitude_m=400_000.0))
    hi = orbital_period_s(OrbitalElements(altitude_m=2_000_000.0))
    ratio = ((R_EARTH_M + 2_000_000.0) / (R_EARTH_M + 400_000.0)) ** 1.5
    assert hi / lo == pytest.approx(ratio, rel=1e-12)
    assert MU_EARTH_M3_S2 == 3.986004418e14
