"""Constellation geometry: circular-orbit propagation and trace export.

Satellite positions come from an analytic propagator over circular
Keplerian orbits. dump_trace writes them out as a CSV trace.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .layers import LAYER_ORDER, Layer

R_EARTH_M = 6_371_000.0
MU_EARTH_M3_S2 = 3.986004418e14
MIN_ALTITUDE_M = 400_000.0

_TWO_PI = 2.0 * math.pi

DEFAULT_ALTITUDE_BY_LAYER: Mapping[Layer, float] = {
    Layer.MIST: 400_000.0,
    Layer.EDGE_DC: 2_000_000.0,
    Layer.CLOUD: 10_000_000.0,
}

DEFAULT_INCLINATION_RAD = math.radians(53.0)

TRACE_HEADER = ("sat_id", "t", "x", "y", "z")


@dataclass(frozen=True)
class OrbitalElements:
    """A circular orbit: altitude plus inclination, RAAN, and in-plane phase.

    All angles are radians in [0, 2*pi); altitude is above the mean Earth
    radius and must sit at or above the 400 km floor.
    """

    altitude_m: float
    inclination_rad: float = 0.0
    raan_rad: float = 0.0
    phase_rad: float = 0.0

    def __post_init__(self):
        if self.altitude_m < MIN_ALTITUDE_M:
            raise ConfigurationError(
                f"altitude_m must be >= {MIN_ALTITUDE_M:.0f}, got {self.altitude_m}"
            )
        for name in ("inclination_rad", "raan_rad", "phase_rad"):
            value = getattr(self, name)
            if not 0.0 <= value < _TWO_PI:
                raise ConfigurationError(f"{name} must lie in [0, 2*pi), got {value}")

    @property
    def semi_major_axis_m(self) -> float:
        return R_EARTH_M + self.altitude_m


def orbital_period_s(elements: OrbitalElements) -> float:
    """Keplerian period T = 2*pi*sqrt(a^3 / mu) for a circular orbit."""
    a = elements.semi_major_axis_m
    return _TWO_PI * math.sqrt(a * a * a / MU_EARTH_M3_S2)


def angular_rate_rad_s(elements: OrbitalElements) -> float:
    a = elements.semi_major_axis_m
    return math.sqrt(MU_EARTH_M3_S2 / (a * a * a))


def position_at(elements: OrbitalElements, t_seconds: float) -> tuple[float, float, float]:
    """Earth-centered (x, y, z) position in meters on the circular orbit at time t.

    The in-plane point (a*cos(theta), a*sin(theta), 0) with
    theta = phase + n*t is rotated about x by the inclination and then
    about z by the RAAN. Pure function of its inputs.
    """
    a = elements.semi_major_axis_m
    theta = elements.phase_rad + angular_rate_rad_s(elements) * t_seconds
    ct, st = math.cos(theta), math.sin(theta)
    ci, si = math.cos(elements.inclination_rad), math.sin(elements.inclination_rad)
    co, so = math.cos(elements.raan_rad), math.sin(elements.raan_rad)
    return (
        a * (ct * co - st * ci * so),
        a * (ct * so + st * ci * co),
        a * (st * si),
    )


class Phasing(str, Enum):
    WALKER_DELTA = "walker_delta"
    RANDOM_UNIFORM = "random_uniform"


@dataclass(frozen=True)
class ConstellationSpec:
    """Layered constellation description.

    walker_delta spreads each layer's satellites over `planes` evenly
    spaced orbital planes with uniform in-plane phasing; random_uniform
    draws inclination/RAAN/phase for every satellite from a seeded RNG.
    """

    mist: int = 1000
    edge_dc: int = 24
    cloud: int = 18
    altitude_by_layer: Mapping[Layer, float] = field(
        default_factory=lambda: dict(DEFAULT_ALTITUDE_BY_LAYER)
    )
    planes: int = 8
    inclination_rad: float = DEFAULT_INCLINATION_RAD
    phasing: Phasing = Phasing.WALKER_DELTA
    rng_seed: int = 1

    def count_for(self, layer: Layer) -> int:
        return {Layer.MIST: self.mist, Layer.EDGE_DC: self.edge_dc, Layer.CLOUD: self.cloud}[layer]

    @property
    def total(self) -> int:
        return self.mist + self.edge_dc + self.cloud


def _walker_layer(count: int, altitude: float, inclination: float, planes: int):
    """Evenly distribute one layer over `planes`; remainder fills early planes."""
    per_plane = [count // planes + (1 if p < count % planes else 0) for p in range(planes)]
    out = []
    for p, size in enumerate(per_plane):
        if size == 0:
            continue
        raan = _TWO_PI * p / planes
        for k in range(size):
            phase = _TWO_PI * k / size
            out.append(
                OrbitalElements(
                    altitude_m=altitude,
                    inclination_rad=inclination,
                    raan_rad=raan,
                    phase_rad=phase,
                )
            )
    return out


def build_constellation(spec: ConstellationSpec) -> list[tuple[Layer, OrbitalElements]]:
    """Instantiate the constellation, layer-major then plane then slot.

    Deterministic: a pure function of its ConstellationSpec, including
    the random_uniform case whose draws come from spec.rng_seed.
    """
    out: list[tuple[Layer, OrbitalElements]] = []
    if spec.phasing is Phasing.WALKER_DELTA:
        for layer in LAYER_ORDER:
            altitude = spec.altitude_by_layer[layer]
            for elements in _walker_layer(
                spec.count_for(layer), altitude, spec.inclination_rad, spec.planes
            ):
                out.append((layer, elements))
    elif spec.phasing is Phasing.RANDOM_UNIFORM:
        rng = random.Random(spec.rng_seed)
        for layer in LAYER_ORDER:
            altitude = spec.altitude_by_layer[layer]
            for _ in range(spec.count_for(layer)):
                # Draw order per satellite: inclination, RAAN, phase.
                inc = rng.random() * _TWO_PI
                raan = rng.random() * _TWO_PI
                phase = rng.random() * _TWO_PI
                out.append(
                    (
                        layer,
                        OrbitalElements(
                            altitude_m=altitude,
                            inclination_rad=inc,
                            raan_rad=raan,
                            phase_rad=phase,
                        ),
                    )
                )
    else:  # pragma: no cover
        raise ConfigurationError(f"unknown phasing {spec.phasing!r}")
    return out


def constellation_key(spec: ConstellationSpec) -> tuple:
    """The spec fields build_constellation reads, as a hashable key: specs with
    equal keys build equal constellations.

    Each layer's count, with its altitude when the layer has satellites, in
    LAYER_ORDER whatever the mapping's order; then planes and inclination
    under walker_delta, or rng_seed under random_uniform, the only phasing
    that draws.
    """
    layers = tuple((spec.count_for(layer), spec.altitude_by_layer[layer] if spec.count_for(layer)
                    else None) for layer in LAYER_ORDER)
    if spec.phasing is Phasing.WALKER_DELTA:
        return spec.phasing, layers, spec.planes, spec.inclination_rad
    return spec.phasing, layers, spec.rng_seed


class OrbitPositions:
    """Vectorized position source for a fixed satellite list.

    Per-satellite orbit constants are precomputed. Satellites that share
    a (mean motion, phase) pair share the orbit angle rate*t + phase at
    every t, as equal slots of different planes do in a Walker shell, so
    positions_all takes one cos and one sin per distinct pair and gathers
    them per satellite. Positions are written into one preallocated
    (3, n) buffer; positions_all returns its (n, 3) transposed view,
    valid until the next call, so instances are not safe to share across
    threads. positions_over does the same at several times at once, into
    buffers of its own. positions_at gives satellites at times of their
    own, one angle each. Both use positions_all's numpy operations, so
    their coordinates equal its rows bit for bit. `_by_satellite` holds each
    satellite's orbit row as a tuple of floats, for distances computed in
    Python floats (engine._orbits_apart).
    """

    def __init__(self, elements: Sequence[OrbitalElements]):
        if not elements:
            raise ConfigurationError("OrbitPositions needs at least one satellite")
        self._elements = tuple(elements)
        n = len(elements)
        orbits = np.array([
            [e.semi_major_axis_m for e in elements],
            [angular_rate_rad_s(e) for e in elements],
            [e.phase_rad for e in elements],
            [math.cos(e.inclination_rad) for e in elements],
            [math.sin(e.inclination_rad) for e in elements],
            [math.cos(e.raan_rad) for e in elements],
            [math.sin(e.raan_rad) for e in elements],
        ])
        self._orbits = orbits
        a, rate, phase, ci, si, co, so = orbits
        # one tuple of floats per satellite; such tuples drop out of the cycle collector's tracking
        self._by_satellite = tuple(map(tuple, orbits.T.tolist()))
        key = np.empty(n, dtype=np.complex128)
        key.real, key.imag = rate, phase
        angles, group = np.unique(key, return_inverse=True)
        g = len(angles)
        self._rate, self._phase = angles.real.copy(), angles.imag.copy()
        self._theta = np.empty(g)
        self._trig_by_angle = np.empty((2, g))
        # flat indices into _trig_by_angle that fill _trig with the rows
        # cos, cos, sin, sin of each satellite's angle
        self._gather = np.concatenate((group, group, group + g, group + g))
        self._group = group
        self._trig = np.empty((4, n))
        # constants tiled to the shapes they multiply, so no operand broadcasts
        self._ci2 = np.array([ci, ci])
        self._co_so = np.array([co, so])
        self._neg_so_co = np.array([-so, co])
        self._si = si
        self._a3 = np.array([a, a, a])
        self._terms = np.empty((2, n))
        self._xyz = np.empty((3, n))
        # positions_over's buffers, made at its first call
        self._over: tuple[np.ndarray, ...] = ()

    def __len__(self) -> int:
        return len(self._elements)

    def positions_all(self, t_seconds: float) -> np.ndarray:
        """All positions at time t as an (n, 3) view of a reused buffer."""
        theta, by_angle, trig, terms, xyz = (
            self._theta, self._trig_by_angle, self._trig, self._terms, self._xyz)
        np.multiply(self._rate, t_seconds, out=theta)
        theta += self._phase
        np.cos(theta, out=by_angle[0])
        np.sin(theta, out=by_angle[1])
        # mode="clip" lets take write into `out` unbuffered; indices are in range
        by_angle.ravel().take(self._gather, out=trig.ravel(), mode="clip")
        # x = a*(ct*co - st*ci*so) and y = a*(ct*so + st*ci*co), both rows at once;
        # (st*ci)*(-so) is -((st*ci)*so) exactly, so adding it subtracts
        np.multiply(trig[2:], self._ci2, out=terms)
        terms *= self._neg_so_co
        np.multiply(trig[:2], self._co_so, out=xyz[:2])
        xyz[:2] += terms
        # z = a*st*si
        np.multiply(trig[3], self._si, out=xyz[2])
        xyz *= self._a3
        return xyz.T

    def positions_over(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """positions_all at each of m `times`, as a (3, m, n) view of reused buffers:
        [:, i] is positions_all(times[i]).T, bit for bit. It is valid until the
        next call, and the caller may overwrite it.

        positions_all's operations with a leading axis of times: one cos and one
        sin per distinct (rate, phase) and time, gathered per satellite. The
        buffers are made at the first call, for its m times, and remade only
        for a call of more times than any before.
        """
        m, n, g = len(times), len(self), len(self._rate)
        if not self._over or self._over[0].shape[1] < m:
            self._over = np.empty((2, m, g)), np.empty((2, m, n)), np.empty((3, m, n))
        by_angle, trig, xyz = self._over
        by_angle, trig, xyz = by_angle[:, :m], trig[:, :m], xyz[:, :m]
        theta = by_angle[1]  # the angles, which sin then overwrites in place
        np.multiply(self._rate, np.asarray(times, dtype=np.float64)[:, None], out=theta)
        theta += self._phase
        np.cos(theta, out=by_angle[0])
        np.sin(theta, out=theta)
        # trig[0] holds each satellite's cos, trig[1] its sin
        by_angle.take(self._group, axis=2, out=trig, mode="clip")
        ct, st = trig
        np.multiply(st, self._si, out=xyz[2])
        np.multiply(ct, self._co_so[:, None], out=xyz[:2])
        # positions_all's terms rows, (st*ci)*(-so) and (st*ci)*co, in trig's place
        st *= self._ci2[0]
        np.multiply(st, self._neg_so_co[0], out=ct)
        st *= self._neg_so_co[1]
        xyz[:2] += trig
        xyz *= self._a3[:, None]
        return xyz

    def positions_at(self, ids: np.ndarray, t_seconds: np.ndarray):
        """Arrays x, y, z of satellite ids[i] at time t_seconds[i], the two broadcast together.

        The float operations of positions_all, elementwise.
        """
        a, rate, phase, ci, si, co, so = self._orbits[:, ids]
        theta = rate * t_seconds
        theta += phase
        ct, st = np.cos(theta), np.sin(theta)
        buf = st * ci
        x = ct * co
        x -= buf * so
        x *= a
        y = ct * so
        y += buf * co
        y *= a
        z = st * si
        z *= a
        return x, y, z

    def position_one(self, index: int, t_seconds: float) -> tuple[float, float, float]:
        return position_at(self._elements[index], t_seconds)


# added to each window's half-width: many times the rounding of the angles it is made of
_WINDOW_SLACK_RAD = 1e-9


class PlaneQuery:
    """The satellites of one shell block, plane by plane, for finding those near a point.

    `rows` are OrbitPositions orbit rows (a, rate, phase, cos i, sin i,
    cos raan, sin raan) of satellites 0 to len(rows) - 1. Rows that share
    all but the phase share a circle: the plane through the Earth's centre
    with normal n = (sin raan sin i, -cos raan sin i, cos i), on which
    satellite k sits at a (cos θ u + sin θ v), θ = rate t + phase_k,
    u = (cos raan, sin raan, 0) and v = (-cos i sin raan, cos i cos raan,
    sin i), as positions_all places it. A walker_delta layer has `planes`
    such circles; random_uniform gives one per satellite, which this query
    does not pay for, so engine.Geometry builds one for walker_delta only.

    `spacing` is the chord between neighbouring slots of the fullest plane.
    """

    def __init__(self, rows: Sequence[tuple[float, ...]]):
        circles: dict[tuple[float, ...], list[tuple[float, int]]] = {}
        for i, (a, rate, phase, ci, si, co, so) in enumerate(rows):
            circles.setdefault((a, rate, ci, si, co, so), []).append((phase, i))
        self._planes = []
        for (a, rate, ci, si, co, so), slots in circles.items():
            slots.sort()
            self._planes.append((so * si, -co * si, ci, co, so, -ci * so, ci * co, si, a, rate,
                                 [phase for phase, _ in slots], [i for _, i in slots]))
        size, a = max((len(slots), key[0]) for key, slots in circles.items())
        self.spacing = 2.0 * a * math.sin(math.pi / max(2, size))

    def within(self, x: float, y: float, z: float, t: float, r: float) -> list[int]:
        """Satellites that may lie within `r` of the point (x, y, z) at time `t`: a
        superset of those whose computed distance from it is at most r.

        A circle is skipped when its plane lies farther than R from the point,
        R = r (1 + 1e-9) + 1 m, and else its slots at most R away are those
        whose angle lies within acos((h² + ρ² + a² - R²) / 2aρ) of the
        point's projection, h being the point's height over the plane and ρ
        the projection's distance from the centre; they are taken from the
        sorted phases by bisection. R's 1 m over r, the rounding of a
        computed distance being some 1e-8 m, and the window's slack keep
        every slot within r inside, whatever the rounding of the window
        itself.
        """
        if r < 0.0:
            return []
        big = r * (1.0 + 1e-9) + 1.0
        rest = x * x + y * y + z * z - big * big
        out: list[int] = []
        for nx, ny, nz, ux, uy, vx, vy, vz, a, rate, phases, ids in self._planes:
            h = x * nx + y * ny + z * nz
            if h > big or h < -big:
                continue
            pu, pv = x * ux + y * uy, x * vx + y * vy + z * vz
            rho = math.hypot(pu, pv)
            num, den = rest + a * a, 2.0 * a * rho  # |p|² = h² + ρ²
            if num > den:  # every slot is farther than R
                continue
            if num <= -den:
                out += ids
                continue
            w = math.acos(num / den) + _WINDOW_SLACK_RAD
            if w >= math.pi:
                out += ids
                continue
            lo = (math.atan2(pv, pu) - rate * t - w) % _TWO_PI
            hi = lo + (w + w)
            first = bisect_left(phases, lo)
            if hi < _TWO_PI:
                out += ids[first:bisect_right(phases, hi)]
            else:
                out += ids[first:]
                out += ids[:bisect_right(phases, hi - _TWO_PI)]
        return out


def dump_trace(stream: IO[str], provider, ids: Sequence[str], times: Iterable[float]) -> None:
    """Write positions in the trace CSV layout, header `sat_id,t,x,y,z`.

    Rows are grouped per satellite in `ids` order, times ascending; float
    formatting uses repr, so float() reads back the exact values.
    """
    time_list = sorted(set(float(t) for t in times))
    if not time_list:
        raise ConfigurationError("dump_trace needs at least one sample time")
    stream.write(",".join(TRACE_HEADER) + "\n")
    for i, sat_id in enumerate(ids):
        for t in time_list:
            x, y, z = provider.position_one(i, t)
            stream.write(f"{sat_id},{t!r},{x!r},{y!r},{z!r}\n")
