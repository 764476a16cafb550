"""Grid runner: constellation size x policy x seed.

Produces one MetricsRecord per grid point in construction order
(count-major, then policy, then seed), regardless of how many worker
processes execute the runs. Runs that share a seed share their arrivals:
they are drawn once, at the grid's largest mist count, and each run takes
those of its own mist satellites (see engine.draw_arrivals). In one
process, runs that share a constellation share its engine.Geometry, built
at the first of them and dropped after the last; runs that also share
their arrivals, one sweep key, share an engine.SetStore of the arrivals'
feasible sets the same way; there the runs go key by key, each seed's
runs of a count together, so one store is live at a time.
Writers emit results.csv plus one plot_<metric>.csv per headline metric,
shaped for line charts: a satellites column and one column per policy,
averaged over seeds.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .config import SimulationConfig, validate
from .engine import Geometry, SetStore, Simulation, draw_arrivals
from .errors import ConfigurationError
from .metrics import MetricsRecord, emit_csv
from .orbital import constellation_key
from .orchestrate import PolicyId

DEFAULT_COUNTS = tuple(range(100, 1001, 100))
PLOT_METRICS = (
    "success_rate_pct",
    "avg_e2e_s",
    "total_energy_db",
    "avg_vm_cpu_pct",
)


@dataclass(frozen=True)
class SweepSpec:
    satellite_counts: tuple[int, ...] = DEFAULT_COUNTS
    policies: tuple[PolicyId, ...] = tuple(PolicyId)
    seeds: tuple[int, ...] = (1,)
    scale_all_layers: bool = False
    output_dir: Path | None = None

    def __post_init__(self):
        if not self.satellite_counts:
            raise ConfigurationError("sweep needs at least one satellite count")
        if any(c <= 0 for c in self.satellite_counts):
            raise ConfigurationError("satellite counts must be positive")
        if any(b <= a for a, b in zip(self.satellite_counts, self.satellite_counts[1:])):
            raise ConfigurationError("satellite counts must be strictly increasing")
        if not self.policies:
            raise ConfigurationError("sweep needs at least one policy")
        if len(set(self.policies)) != len(self.policies):
            raise ConfigurationError("duplicate policy in sweep")
        if not self.seeds:
            raise ConfigurationError("sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("duplicate seed in sweep")


def derive_config(base: SimulationConfig, count: int, policy: PolicyId,
                  seed: int, scale_all_layers: bool) -> SimulationConfig:
    """Base config specialized to one grid point.

    The seed is the run seed and the constellation's, as in parse_config.
    The count replaces the mist layer; with scale_all_layers the edge and
    cloud counts scale by count / base mist count, rounded, with a floor
    of 1 for a layer whose base count is positive. An empty layer stays
    empty.
    """
    const = base.constellation
    if scale_all_layers:
        if const.mist <= 0:
            raise ConfigurationError("scale_all_layers needs a positive base mist count")
        factor = count / const.mist
        const = replace(
            const,
            mist=count,
            edge_dc=_scaled(const.edge_dc, factor),
            cloud=_scaled(const.cloud, factor),
            rng_seed=seed,
        )
    else:
        const = replace(const, mist=count, rng_seed=seed)
    return replace(base, constellation=const, policy=policy, seed=seed)


def _scaled(base_count: int, factor: float) -> int:
    return max(1, round(base_count * factor)) if base_count > 0 else 0


def _arrival_key(config: SimulationConfig):
    """What a run's arrivals depend on, beyond which mist satellites it has."""
    task = config.task
    count = config.constellation.mist if task.rate_is_global else None
    return config.seed, task, config.duration_s, count


def _run_one(job) -> MetricsRecord:
    config, arrivals = job
    return Simulation(config, arrivals=arrivals).run()


def _run_sharing_geometry(jobs) -> list[MetricsRecord]:
    """The jobs' records, in order. The runs of each constellation_key share one
    Geometry, and those of each sweep key, (constellation_key, arrival key),
    one SetStore. The runs go key by key, in the order of each key's first
    job, so a key's runs are consecutive; a geometry or store is made at its
    key's first run and dropped after its last."""
    keys = [(constellation_key(config.constellation), _arrival_key(config)) for config, _ in jobs]
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    order = sorted(range(len(jobs)), key=lambda i: first[keys[i]])
    last_geometry = {keys[i][0]: i for i in order}
    last_store = {keys[i]: i for i in order}
    geometries: dict[tuple, Geometry] = {}
    store = None  # the current key's
    records: list = [None] * len(jobs)
    for i in order:
        (config, arrivals), key = jobs[i], keys[i]
        shape = key[0]
        geometry = geometries.get(shape)
        if geometry is None:
            geometry = geometries[shape] = Geometry(config.constellation)
        if store is None:
            store = SetStore()
        records[i] = Simulation(config, arrivals=arrivals, geometry=geometry,
                                set_store=store).run()
        if last_geometry[shape] == i:
            del geometries[shape]
        if last_store[key] == i:
            store = None
    return records


def run_sweep(spec: SweepSpec, base: SimulationConfig,
              parallel: int = 1) -> list[MetricsRecord]:
    """Run the grid; optionally write CSV artifacts to spec.output_dir.

    At most min(parallel, number of runs, CPU count) worker processes run.
    """
    if parallel < 1:
        raise ConfigurationError("parallel must be >= 1")
    configs = [
        derive_config(base, count, policy, seed, spec.scale_all_layers)
        for count in spec.satellite_counts
        for policy in spec.policies
        for seed in spec.seeds
    ]
    for config in configs:
        validate(config)
    # configs are count-major with counts increasing, so a key's last config has its
    # largest mist count, whose arrivals hold those of the key's other runs
    largest = {_arrival_key(config): config for config in configs}
    arrivals = {key: draw_arrivals(config) for key, config in largest.items()}
    # a worker receives its run's arrivals: pickling them costs about 2% of drawing
    # them (3 against 153 ms for 1,000 mist over 600 s on a 2-core host)
    jobs = [(config, arrivals[_arrival_key(config)]) for config in configs]
    workers = min(parallel, len(configs), os.cpu_count() or 1)
    if workers == 1:
        records = _run_sharing_geometry(jobs)
    else:
        # a worker builds each run's geometry: a pickle round trip of one costs about
        # as much as building it (2.2 against 2.3 ms at 300 mist, 4.6 against 3.5 ms
        # at 1,000, on a 2-core host)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, jobs))
    if spec.output_dir is not None:
        write_outputs(spec, records)
    return records


def write_outputs(spec: SweepSpec, records: Sequence[MetricsRecord]) -> None:
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_bytes(emit_csv(records))
    for metric in PLOT_METRICS:
        data = plot_data(spec, records, metric)
        (out / f"plot_{metric}.csv").write_bytes(data)


def plot_data(spec: SweepSpec, records: Sequence[MetricsRecord],
              metric: str) -> bytes:
    """One chart-ready table: satellites column, one column per policy.

    Cell = metric averaged over seeds at that grid point; absent values
    propagate (any absent seed value makes the cell absent).
    """
    by_key: dict[tuple[int, PolicyId], list] = {}
    for rec in records:
        by_key.setdefault((rec.satellite_count, rec.policy), []).append(
            getattr(rec, metric)
        )
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["satellites"] + [policy.value for policy in spec.policies])
    for count in spec.satellite_counts:
        row: list[str] = [str(count)]
        for policy in spec.policies:
            values = by_key.get((count, policy), [])
            if len(values) != len(spec.seeds) or any(v is None for v in values):
                row.append("")
            else:
                row.append("%.6g" % (sum(values) / len(values)))
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")
