"""Checks of each simulation run against computations made apart from satmist.

The rules here are written from the model's description, not imported
from the package: counts are taken from the final task states, placement
is recomputed by brute force over the same snapshot, and radio energy is
recomputed with the first-order radio model. A check that fails raises
`CheckFailure`, and the benchmark counts that run as a failed operation.
"""

from __future__ import annotations

import math
from collections import Counter

R_EARTH_M = 6_371_000.0  # mean Earth radius; orbit radius = this + altitude
LAYER_NAMES = ("mist", "edge_dc", "cloud")  # index = layer code in a CandidateView
WEIGHT_GREEDY_RATIOS = (6.0, 6.0, 5.0, 3.0)  # distance, CPU time, queue, energy
REL_TOL = 1e-9


class CheckFailure(Exception):
    """A simulated result disagrees with the benchmark's own computation."""


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_accounting(sim, record) -> None:
    """Record fields against counts taken from the run's final task states."""
    config = sim.config
    states = Counter(task.state.value for task in sim.tasks)
    causes = Counter(task.failure_cause.value for task in sim.tasks
                     if task.state.value == "failed")
    placed = Counter(sim.vms[task.assigned_vm].host_layer.value
                     for task in sim.tasks if task.assigned_vm >= 0)
    generated = len(sim.tasks)
    succeeded = states["succeeded"]
    unfinished = generated - succeeded - states["failed"]
    expect = {
        "generated": generated,
        "succeeded": succeeded,
        "failed_deadline": causes["deadline"],
        "failed_mobility": causes["mobility"],
        "failed_no_destination": causes["no_destination"],
        "unfinished": unfinished,
    }
    for field, value in expect.items():
        if getattr(record, field) != value:
            raise CheckFailure(f"{field} is {getattr(record, field)}, task states give {value}")
    if record.generated != (record.succeeded + record.failed_deadline + record.failed_mobility
                            + record.failed_no_destination + record.unfinished):
        raise CheckFailure("generated != succeeded + failures + unfinished")
    layer_counts = {layer.value: n for layer, n in record.per_layer_task_counts.items() if n}
    if layer_counts != dict(placed):
        raise CheckFailure(f"per-layer placements {layer_counts} != assigned VMs {dict(placed)}")
    if sum(layer_counts.values()) != generated - record.failed_no_destination:
        raise CheckFailure("per-layer placements do not sum to generated - failed_no_destination")

    finished = generated - unfinished
    if finished:
        if not _close(record.success_rate_pct, 100.0 * succeeded / finished):
            raise CheckFailure(f"success_rate_pct {record.success_rate_pct} != succeeded/finished")
        if not 0.0 <= record.success_rate_pct <= 100.0:
            raise CheckFailure(f"success_rate_pct {record.success_rate_pct} outside [0, 100]")
    elif record.success_rate_pct is not None:
        raise CheckFailure("success_rate_pct defined with no finished task")
    if not 0.0 <= record.avg_vm_cpu_pct <= 100.0:
        raise CheckFailure(f"avg_vm_cpu_pct {record.avg_vm_cpu_pct} outside [0, 100]")
    if (record.avg_e2e_s is None) != (succeeded == 0):
        raise CheckFailure("avg_e2e_s defined iff a task succeeded")
    if record.avg_e2e_s is not None:
        fastest = max(profile.mips for profile in config.profiles.values())
        low, high = config.task.length_mi / fastest, config.task.max_latency_s
        if not low <= record.avg_e2e_s <= high:
            raise CheckFailure(f"avg_e2e_s {record.avg_e2e_s} outside [{low}, {high}]")

    if config.policy.value == "distance_only" and "mist" in {layer.value for layer in config.architecture}:
        # The origin's own VM is feasible at distance 0, so nothing is offloaded.
        if set(layer_counts) - {"mist"} or record.total_energy_j != 0.0:
            raise CheckFailure(f"distance_only offloaded: {layer_counts}, "
                               f"{record.total_energy_j} J")


class TransferLog:
    """Collects the engine's on_transfer callbacks for one run."""

    def __init__(self, sim, skew_energy: bool = False):
        self.sim = sim
        self.skew_energy = skew_energy
        self.rows: list[tuple[float, float, float, float, str, str]] = []

    def record(self, task_id: int, bits: float, distance_m: float, tx: float, rx: float) -> None:
        if self.skew_energy:
            tx *= 1.0 + 1e-6
        task = self.sim.tasks[task_id]
        origin = self.sim.nodes[task.origin_satellite].layer.value
        host = self.sim.vms[task.assigned_vm].host_layer.value
        self.rows.append((bits, distance_m, tx, rx, origin, host))

    def check(self, record) -> None:
        """Per-transfer energy and geometry, and the run's total energy."""
        config = self.sim.config
        radio = config.radio
        crossover = math.sqrt(radio.eps_fs / radio.eps_mp)
        radius = {layer.value: R_EARTH_M + alt
                  for layer, alt in config.constellation.altitude_by_layer.items()}
        reach = {layer.value: r for layer, r in config.link.range_by_layer.items()}
        total = 0.0
        for bits, d, tx, rx, origin, host in self.rows:
            d2 = d * d
            amp = radio.eps_fs * d2 if d < crossover else radio.eps_mp * d2 * d2
            want_tx = bits * (radio.e_elec + amp)
            want_rx = bits * radio.e_elec
            if not (_close(tx, want_tx) and _close(rx, want_rx)):
                raise CheckFailure(f"transfer of {bits} bits over {d} m charged "
                                   f"tx={tx} rx={rx}, radio model gives {want_tx} {want_rx}")
            # Antipodal pairs reach r1 + r2 up to rounding of the position difference.
            if d > (radius[origin] + radius[host]) * (1.0 + REL_TOL):
                raise CheckFailure(f"{origin}->{host} transfer over {d} m exceeds the orbit radii")
            if d > reach[host]:
                raise CheckFailure(f"{origin}->{host} transfer over {d} m exceeds the {host} range")
            total += want_tx + want_rx
        if not _close(record.total_energy_j, total):
            raise CheckFailure(f"total_energy_j {record.total_energy_j} != {total} "
                               f"recomputed over {len(self.rows)} transfers")


def oracle_select(policy: str, codes: list, dist: list, queue: list, mips: list,
                  assigned: list, length_mi: float, input_bits: float, config,
                  drawn: int | None) -> int | None:
    """Brute-force placement over one snapshot; None when nothing is feasible.

    A candidate is feasible when its layer is enabled and it lies within
    its layer's range (inclusive). Among feasible candidates each policy
    minimises its score, ties to the lowest index. random_vm takes the
    drawn index if feasible, else the next feasible index cyclically.
    """
    enabled = {layer.value for layer in config.architecture}
    reach = {layer.value: r for layer, r in config.link.range_by_layer.items()}
    feasible = [i for i, (c, d) in enumerate(zip(codes, dist))
                if LAYER_NAMES[c] in enabled and d <= reach[LAYER_NAMES[c]]]
    if not feasible:
        return None
    if policy == "random_vm":
        if drawn in feasible:
            return drawn
        return next((i for i in feasible if i > drawn), feasible[0])
    if policy == "distance_only":
        score = {i: dist[i] for i in feasible}
    elif policy == "round_robin":
        score = {i: assigned[i] for i in feasible}
    elif policy == "trade_off":
        weight = (1.0, 1.0, config.tradeoff_cloud_weight)
        speed = config.link.propagation_speed_mps
        score = {i: weight[codes[i]] * (queue[i] + 1.0) * length_mi / mips[i] + dist[i] / speed
                 for i in feasible}
    elif policy == "weight_greedy":
        radio = config.radio
        crossover = math.sqrt(radio.eps_fs / radio.eps_mp)
        d = [dist[i] for i in feasible]
        q = [queue[i] for i in feasible]
        cpu = [(queue[i] + 1.0) * length_mi / mips[i] for i in feasible]
        energy = [input_bits * (radio.e_elec + radio.eps_fs * (x * x)) if x < crossover
                  else input_bits * (radio.e_elec + radio.eps_mp * ((x * x) * (x * x)))
                  for x in d]
        parts = [_minmax(v) for v in (d, cpu, q, energy)]
        r = WEIGHT_GREEDY_RATIOS
        score = {i: r[0] * a + r[1] * b + r[2] * c + r[3] * e
                 for i, a, b, c, e in zip(feasible, *parts)}
    else:
        raise CheckFailure(f"no oracle for policy {policy!r}")
    return min(feasible, key=score.__getitem__)  # first of equal minima


def _minmax(values: list) -> list:
    lo = min(values)
    span = max(values) - lo
    if span == 0.0:
        return [0.0] * len(values)
    return [(v - lo) / span for v in values]
