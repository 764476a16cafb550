"""Satellite compute infrastructure: nodes and their FIFO virtual machines.

Every satellite hosts a fixed number of single-server VMs (one by
default). A VM serves its queue in arrival order, so a task accepted at
time `now` finishes at max(now, busy_until) + exec_seconds; queues are
unbounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .layers import Layer
from .orbital import OrbitalElements


@dataclass(frozen=True)
class LayerProfile:
    """Compute profile shared by all satellites of one layer."""

    mips: float
    vms_per_satellite: int = 1


DEFAULT_PROFILES: Mapping[Layer, LayerProfile] = {
    Layer.MIST: LayerProfile(mips=10_000.0),
    Layer.EDGE_DC: LayerProfile(mips=40_000.0),
    Layer.CLOUD: LayerProfile(mips=100_000.0),
}


@dataclass(frozen=True)
class SatelliteNode:
    id: int
    layer: Layer
    vm_ids: tuple[int, ...]


class Vm:
    """Single-server FIFO execution queue on one satellite.

    busy_until is the time the last accepted task finishes;
    busy_time_total accrues executed seconds (optionally clipped to a
    horizon so utilization never exceeds the observation window).
    """

    __slots__ = (
        "id",
        "host_satellite",
        "host_layer",
        "mips",
        "queue",
        "busy_until",
        "busy_time_total",
    )

    def __init__(self, vm_id: int, host_satellite: int, host_layer: Layer, mips: float):
        self.id = vm_id
        self.host_satellite = host_satellite
        self.host_layer = host_layer
        self.mips = mips
        self.queue: deque[int] = deque()
        self.busy_until = 0.0
        self.busy_time_total = 0.0

    def enqueue(self, task_id: int, now: float, exec_seconds: float, horizon: float | None = None) -> float:
        """Accept a task and return its execution completion time.

        With a horizon, only the part of the service interval inside
        [0, horizon] counts toward busy_time_total.
        """
        start = max(now, self.busy_until)
        completion = start + exec_seconds
        self.queue.append(task_id)
        self.busy_until = completion
        if horizon is None:
            self.busy_time_total += exec_seconds
        else:
            self.busy_time_total += max(0.0, min(completion, horizon) - min(start, horizon))
        return completion

    def __repr__(self) -> str:
        return (
            f"Vm(id={self.id}, sat={self.host_satellite}, layer={self.host_layer}, "
            f"mips={self.mips}, queued={len(self.queue)})"
        )


def utilization_pct(vm: Vm, sim_duration_s: float) -> float:
    """Busy share of the run, clamped to [0, 100]."""
    if sim_duration_s <= 0:
        raise ValueError(f"sim_duration_s must be positive, got {sim_duration_s}")
    return 100.0 * min(vm.busy_time_total, sim_duration_s) / sim_duration_s


def build_nodes(
    layered_elements: Sequence[tuple[Layer, OrbitalElements]],
    profiles: Mapping[Layer, LayerProfile] = DEFAULT_PROFILES,
) -> tuple[list[SatelliteNode], list[Vm]]:
    """Create one node per satellite and its VMs, ids in input order."""
    nodes: list[SatelliteNode] = []
    vms: list[Vm] = []
    for sat_id, (layer, _elements) in enumerate(layered_elements):
        profile = profiles[layer]
        ids = []
        for _ in range(profile.vms_per_satellite):
            vm = Vm(len(vms), sat_id, layer, profile.mips)
            vms.append(vm)
            ids.append(vm.id)
        nodes.append(SatelliteNode(id=sat_id, layer=layer, vm_ids=tuple(ids)))
    return nodes, vms
