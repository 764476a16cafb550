"""Inter-satellite link timing and first-order radio energy accounting.

Links are single-hop and contention-free: a transfer costs a serialization
delay (bits over bandwidth) plus a propagation delay (distance over signal
speed). Transmission energy follows the two-regime amplifier model, with a
free-space d^2 term below the crossover distance and a multipath d^4 term
above it; reception costs the electronics term only. Aggregate energies
are reported on a log scale relative to 1 J, labeled dB(J).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Mapping

from .layers import Layer


@dataclass(frozen=True)
class RadioParams:
    """First-order radio constants, in J/bit, J/bit/m^2, and J/bit/m^4."""

    e_elec: float = 5e-8
    eps_fs: float = 1e-11
    eps_mp: float = 1.3e-15

    @cached_property
    def crossover_m(self) -> float:
        """Distance where the free-space and multipath terms meet; computed on the
        first read, which tx_energy makes for every transfer."""
        return math.sqrt(self.eps_fs / self.eps_mp)

    def __getstate__(self):
        # the constants alone, as a pickle held before crossover_m was cached
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_RANGE_BY_LAYER: Mapping[Layer, float] = {
    Layer.MIST: 32e6,
    Layer.EDGE_DC: 36e6,
    Layer.CLOUD: 40e6,
}


@dataclass(frozen=True)
class LinkParams:
    """Link rate, signal speed, and per-layer reachability ranges (meters)."""

    bandwidth_bps: float = 1e9
    propagation_speed_mps: float = 3e8
    range_by_layer: Mapping[Layer, float] = field(
        default_factory=lambda: dict(DEFAULT_RANGE_BY_LAYER)
    )


DEFAULT_RADIO = RadioParams()
DEFAULT_LINK = LinkParams()


def tx_energy(bits: float, distance_m: float, radio: RadioParams = DEFAULT_RADIO) -> float:
    """Joules to transmit `bits` over `distance_m`.

    Free-space amplification (d^2) below the crossover distance, multipath
    (d^4) at and beyond it.
    """
    d2 = distance_m * distance_m
    if distance_m < radio.crossover_m:
        return bits * (radio.e_elec + radio.eps_fs * d2)
    return bits * (radio.e_elec + radio.eps_mp * (d2 * d2))


def rx_energy(bits: float, radio: RadioParams = DEFAULT_RADIO) -> float:
    """Joules to receive `bits`: electronics term only, distance-free."""
    return bits * radio.e_elec


def energy_db(joules: float) -> float:
    """10*log10(E) relative to 1 J. Errors on non-positive input."""
    if joules <= 0:
        raise ValueError(f"energy_db needs a positive energy, got {joules}")
    return 10.0 * math.log10(joules)
