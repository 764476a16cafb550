"""Per-run outcome metrics and their CSV serialization.

Success rate excludes tasks the run ended before finishing (they appear
in neither numerator nor denominator); average end-to-end delay covers
succeeded tasks only; average CPU covers every VM in the constellation.
Undefined ratios serialize as empty cells, and a zero-energy run reports
total_energy_db as -inf, the log-scale image of zero.

The `satellites` column records the swept mist-layer count, the x-axis of
a scaling sweep, not the mist+edge+cloud total.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .infra import Vm, utilization_pct
from .layers import Layer
from .netenergy import energy_db
from .orchestrate import PolicyId

CSV_COLUMNS = (
    "policy",
    "satellites",
    "seed",
    "generated",
    "succeeded",
    "failed_deadline",
    "failed_mobility",
    "failed_no_destination",
    "unfinished",
    "success_rate_pct",
    "avg_e2e_s",
    "total_energy_j",
    "total_energy_db",
    "avg_vm_cpu_pct",
)


@dataclass(frozen=True)
class MetricsRecord:
    policy: PolicyId
    satellite_count: int
    seed: int
    generated: int
    succeeded: int
    failed_deadline: int
    failed_mobility: int
    failed_no_destination: int
    unfinished: int
    success_rate_pct: float | None
    avg_e2e_s: float | None
    total_energy_j: float
    total_energy_db: float
    avg_vm_cpu_pct: float
    per_layer_task_counts: Mapping[Layer, int] = field(default_factory=dict)

    @property
    def failed_total(self) -> int:
        return self.failed_deadline + self.failed_mobility + self.failed_no_destination


def success_rate(succeeded: int, generated: int, unfinished: int) -> float | None:
    """Percentage of finished tasks that succeeded; None when none finished."""
    finished = generated - unfinished
    if succeeded < 0 or generated < 0 or unfinished < 0:
        raise ValueError("counts must be non-negative")
    if succeeded > finished:
        raise ValueError(f"succeeded ({succeeded}) exceeds finished ({finished})")
    if finished == 0:
        return None
    return 100.0 * succeeded / finished


def avg_e2e(latencies: Sequence[float]) -> float | None:
    """Mean end-to-end latency of succeeded tasks, summed by math.fsum, so in
    any order to the same bits; None for an empty run."""
    if not latencies:
        return None
    return math.fsum(latencies) / len(latencies)


def avg_cpu(vms: Sequence[Vm], sim_duration_s: float) -> float:
    """Mean utilization over every VM, idle ones included."""
    if not vms:
        raise ValueError("avg_cpu needs at least one VM")
    return sum(utilization_pct(vm, sim_duration_s) for vm in vms) / len(vms)


def energy_db_or_neg_inf(total_energy_j: float) -> float:
    return energy_db(total_energy_j) if total_energy_j > 0 else float("-inf")


def _format_float(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.6g}"


def emit_csv(records: Iterable[MetricsRecord]) -> bytes:
    """Serialize records with a fixed column order and 6 significant digits."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.policy.value,
                r.satellite_count,
                r.seed,
                r.generated,
                r.succeeded,
                r.failed_deadline,
                r.failed_mobility,
                r.failed_no_destination,
                r.unfinished,
                _format_float(r.success_rate_pct),
                _format_float(r.avg_e2e_s),
                _format_float(r.total_energy_j),
                _format_float(r.total_energy_db),
                _format_float(r.avg_vm_cpu_pct),
            ]
        )
    return out.getvalue().encode("utf-8")
