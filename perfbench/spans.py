"""Per-layer host-time spans, recorded from outside the simulator.

`install` replaces, for the life of the process, each public function of
a satmist module that the engine or the sweep runner calls with a wrapper
that times the call as a named span. Spans nest: a span's self time is
its duration minus the durations of the spans opened inside it. Host time
the benchmark spends in its own checks is measured by a `Pause` and left
out of every span open while the checks run.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from workloads import POLICIES

HANDLERS = (
    "on_task_generated",
    "on_upload_complete",
    "on_execution_complete",
    "on_download_complete",
    "on_mobility_tick",
)


class Pause:
    """Accumulates host time spent in benchmark checks; not re-entrant."""

    def __init__(self):
        self.total = 0.0
        self._start = 0.0

    def __enter__(self) -> "Pause":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.total += perf_counter() - self._start


class Tracer:
    def __init__(self, pause: Pause):
        self.pause = pause
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # child time of each open span

    def wrap(self, name, fn):
        """Time `fn` as span `name`, or as `name(args)` when name is callable."""
        name_of = name if callable(name) else (lambda args: name)
        children = self._children
        pause = self.pause

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            paused = pause.total
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (pause.total - paused)
                key = name_of(args)
                self.total[key] += elapsed
                self.self_time[key] += elapsed - children.pop()
                self.calls[key] += 1
                if children:
                    children[-1] += elapsed

        return span


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points where their callers look them up."""
    from satmist import engine, infra, metrics, orbital, sweep

    def patch(owner, attr: str, name) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    patch(orbital.OrbitPositions, "positions_all", "orbital.positions_all")
    patch(orbital.OrbitPositions, "position_one", "orbital.position_one")
    patch(engine, "build_constellation", "orbital.build_constellation")
    patch(engine, "select", lambda args: f"orchestrate.select.{args[0].value}")
    patch(engine, "generate_tasks", "engine.generate_tasks")
    patch(engine.Simulation, "__init__", "engine.setup")
    patch(engine.Simulation, "run", "engine.run")
    for handler in HANDLERS:
        patch(engine.Simulation, handler, f"engine.{handler}")
    patch(infra.Vm, "enqueue", "infra.enqueue")
    patch(engine, "build_nodes", "infra.build_nodes")
    patch(engine, "tx_energy", "netenergy.tx_energy")
    patch(engine, "rx_energy", "netenergy.rx_energy")
    patch(metrics, "avg_cpu", "metrics.avg_cpu")
    patch(sweep, "emit_csv", "metrics.emit_csv")
    patch(sweep, "write_outputs", "sweep.write_outputs")
    patch(sweep, "run_sweep", "sweep.run_sweep")


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit).

    `.us` and `.self_us` are mean host microseconds per call; `.ms`, `.s`
    and `.self_s` are host time per round; counts are per round.
    """
    total, self_time, calls = tracer.total, tracer.self_time, tracer.calls

    def per_call_us(seconds: float, count: int) -> float:
        return 1e6 * seconds / count if count else 0.0

    def per_round(value):
        return value // rounds if isinstance(value, int) and value % rounds == 0 else value / rounds

    out: dict[str, tuple[float, str]] = {}
    for fn in ("positions_all", "position_one"):
        key = f"orbital.{fn}"
        out[f"{key}.us"] = (per_call_us(total[key], calls[key]), "us")
        out[f"{key}.calls"] = (per_round(calls[key]), "count")
    out["orbital.build_constellation.ms"] = (1e3 * per_round(total["orbital.build_constellation"]), "ms")
    for policy in POLICIES:
        key = f"orchestrate.select.{policy}"
        out[f"orchestrate.select.us.{policy}"] = (per_call_us(total[key], calls[key]), "us")
    out["orchestrate.select.calls"] = (
        per_round(sum(calls[f"orchestrate.select.{p}"] for p in POLICIES)), "count")
    for handler in ("on_task_generated", "on_execution_complete"):
        key = f"engine.{handler}"
        out[f"{key}.self_us"] = (per_call_us(self_time[key], calls[key]), "us")
    out["engine.loop.self_s"] = (per_round(self_time["engine.run"]), "s")
    out["engine.run.s"] = (per_round(total["engine.run"]), "s")
    out["engine.events"] = (per_round(sum(calls[f"engine.{h}"] for h in HANDLERS)), "count")
    out["engine.mobility_ticks"] = (per_round(calls["engine.on_mobility_tick"]), "count")
    out["engine.generate_tasks.ms"] = (1e3 * per_round(total["engine.generate_tasks"]), "ms")
    out["infra.enqueue.us"] = (per_call_us(total["infra.enqueue"], calls["infra.enqueue"]), "us")
    out["infra.build_nodes.ms"] = (1e3 * per_round(total["infra.build_nodes"]), "ms")
    transfers = calls["netenergy.tx_energy"]
    out["netenergy.energy.us"] = (
        per_call_us(total["netenergy.tx_energy"] + total["netenergy.rx_energy"], transfers), "us")
    out["netenergy.transfers"] = (per_round(transfers), "count")
    out["metrics.avg_cpu.ms"] = (1e3 * per_round(total["metrics.avg_cpu"]), "ms")
    out["metrics.emit_csv.ms"] = (1e3 * per_round(total["metrics.emit_csv"]), "ms")
    out["sweep.overhead.s"] = (per_round(self_time["sweep.run_sweep"]), "s")
    out["sweep.write_outputs.ms"] = (1e3 * per_round(total["sweep.write_outputs"]), "ms")
    return out


def run_breakdown(tracer: Tracer) -> dict[str, float]:
    """Share of `Simulation.run` host time spent in each layer's self time."""
    t, s = tracer.total, tracer.self_time
    run = t["engine.run"]
    layers = {
        "orbital": t["orbital.positions_all"] + t["orbital.position_one"],
        "orchestrate": sum(t[f"orchestrate.select.{p}"] for p in POLICIES),
        "engine": s["engine.run"] + sum(s[f"engine.{h}"] for h in HANDLERS),
        "infra": t["infra.enqueue"],
        "netenergy": t["netenergy.tx_energy"] + t["netenergy.rx_energy"],
        "metrics": t["metrics.avg_cpu"],
    }
    return {layer: seconds / run for layer, seconds in layers.items()} if run else {}
