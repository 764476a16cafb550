"""Satellite compute infrastructure: nodes and their FIFO virtual machines.

Every satellite hosts one single-server VM, so VM i is satellite i. A
VM serves its tasks in arrival order, so a task accepted at time `now`
starts at max(now, busy_until) and finishes exec_seconds later; queues
are unbounded. A VM keeps only that clock: the engine counts each VM's
queue length in its candidate view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .layers import Layer
from .orbital import OrbitalElements


@dataclass(frozen=True)
class LayerProfile:
    """Compute profile shared by all satellites of one layer."""

    mips: float


DEFAULT_PROFILES: Mapping[Layer, LayerProfile] = {
    Layer.MIST: LayerProfile(mips=10_000.0),
    Layer.EDGE_DC: LayerProfile(mips=40_000.0),
    Layer.CLOUD: LayerProfile(mips=100_000.0),
}


@dataclass(frozen=True)
class SatelliteNode:
    id: int
    layer: Layer


class Vm:
    """Single-server FIFO clock on the satellite with the same id.

    busy_until is the time the last accepted task finishes;
    busy_time_total accrues the executed seconds inside [0, horizon], so
    utilization never exceeds the observation window.
    """

    __slots__ = (
        "id",
        "host_layer",
        "mips",
        "busy_until",
        "busy_time_total",
    )

    def __init__(self, vm_id: int, host_layer: Layer, mips: float):
        self.id = vm_id
        self.host_layer = host_layer
        self.mips = mips
        self.busy_until = 0.0
        self.busy_time_total = 0.0

    def enqueue(self, now: float, exec_seconds: float, horizon: float) -> float:
        """Accept a task at `now` and return its execution completion time."""
        start = max(now, self.busy_until)
        completion = start + exec_seconds
        self.busy_until = completion
        self.busy_time_total += max(0.0, min(completion, horizon) - min(start, horizon))
        return completion


def utilization_pct(vm: Vm, sim_duration_s: float) -> float:
    """Busy share of the run, clamped to [0, 100]."""
    if sim_duration_s <= 0:
        raise ValueError(f"sim_duration_s must be positive, got {sim_duration_s}")
    return 100.0 * min(vm.busy_time_total, sim_duration_s) / sim_duration_s


def build_nodes(
    layered_elements: Sequence[tuple[Layer, OrbitalElements]],
    profiles: Mapping[Layer, LayerProfile] = DEFAULT_PROFILES,
) -> tuple[list[SatelliteNode], list[Vm]]:
    """Create one node and one VM per satellite, ids in input order."""
    layers = [layer for layer, _elements in layered_elements]
    nodes = [SatelliteNode(id=i, layer=layer) for i, layer in enumerate(layers)]
    vms = [Vm(i, layer, profiles[layer].mips) for i, layer in enumerate(layers)]
    return nodes, vms
