"""satmist benchmark: host time of whole sweeps, checked against independent results.

Usage (from the repository root):

    python3 perfbench/run.py --workload full_walker --seed 1 --seconds 40 --trace 0

One operation is one simulation run. A round runs the workload's whole
grid through `sweep.run_sweep` with one worker and writes its CSVs under
perfbench/out/<workload>/; rounds repeat, on the same inputs, until the
next would overrun --seconds. Each run is checked as it ends (see
checks.py); a run that raises or fails a check counts as failed. Every
round's results.csv must hash the same, or `correct` is false.

With --trace 0 the last line reports the end-to-end metrics (medians
over rounds), every host time scaled by the host's speed measured right
before and after each simulation run (see calibrate.py); with --trace 1
it reports per-layer metrics from spans wrapped around each satmist
module's functions (see spans.py), and a sample of placements is
compared with a brute-force oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import checks
import spans
from calibrate import Calibration
from workloads import POLICIES, TINY_DURATION_S, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

ORACLE_EVERY = 50  # compare every 50th placement of a run with the oracle


@dataclass
class RunResult:
    policy: str
    generated: int
    setup_s: float
    run_s: float
    setup_speed: float  # host speed relative to the reference, sampled after set-up
    speed: float  # mean of the samples before and after the run
    error: str | None = None


@dataclass
class Round:
    wall_s: float
    runs: list[RunResult]
    digest: str | None  # sha256 of results.csv; None if the sweep raised
    csv_rows: int = 0

    @property
    def speed(self) -> float:
        """Host speed over the round, its runs' speeds weighted by their run time."""
        return sum(r.run_s * r.speed for r in self.runs) / sum(r.run_s for r in self.runs)


class Probe:
    """Times, and checks, every Simulation the sweep builds and runs."""

    def __init__(self, pause, trace: bool, inject: str | None):
        self.pause = pause
        self.trace = trace
        self.inject = inject
        self.runs: list[RunResult] = []
        self.calibration = Calibration()
        self._config = None
        self._setup_s = 0.0
        self._last_run_s = 0.0  # sizes the speed sample taken before the next run
        self._log = None
        self._errors: list[str] = []
        self._selects = 0

    def install(self) -> None:
        from satmist import engine

        Simulation = engine.Simulation
        init, run = Simulation.__init__, Simulation.run
        probe = self

        def timed_init(sim, config, **kwargs):
            probe._config = config
            probe._errors = []
            probe._selects = 0
            probe._log = None
            if probe.trace:
                probe._log = checks.TransferLog(sim, skew_energy=probe.inject == "energy")
                kwargs.setdefault("on_transfer", probe._log.record)
            start = perf_counter()
            init(sim, config, **kwargs)
            probe._setup_s = perf_counter() - start

        def timed_run(sim):
            with probe.pause:
                before = probe.calibration.speed(probe._last_run_s)
            start = perf_counter()
            record = run(sim)
            elapsed = perf_counter() - start
            with probe.pause:
                after = probe.calibration.speed(elapsed)
                probe._last_run_s = elapsed
                probe._check(sim, record, elapsed, before, (before + after) / 2)
            return record

        Simulation.__init__ = timed_init
        Simulation.run = timed_run
        if self.trace:
            engine.select = self._with_oracle(engine.select)

    def _check(self, sim, record, run_s: float, setup_speed: float, speed: float) -> None:
        if self.inject == "conservation":
            record = replace(record, succeeded=record.succeeded + 1)
        config = sim.config
        result = RunResult(config.policy.value, len(sim.tasks), self._setup_s, run_s,
                           setup_speed, speed)
        try:
            checks.check_accounting(sim, record)
            if self._log is not None:
                self._log.check(record)
            if self._errors:
                raise checks.CheckFailure(self._errors[0])
        except checks.CheckFailure as exc:
            result.error = (f"{config.policy.value} mist={config.constellation.mist} "
                            f"seed={config.seed}: {exc}")
        self.runs.append(result)

    def _with_oracle(self, select):
        """Compare every ORACLE_EVERY-th placement with checks.oracle_select."""
        from satmist.orchestrate import PlacementError

        probe = self

        def select_checked(policy, view, task, architecture, *, rng=None, **kwargs):
            probe._selects += 1
            if probe._selects % ORACLE_EVERY != 1:
                return select(policy, view, task, architecture, rng=rng, **kwargs)
            with probe.pause:
                columns = [a.tolist() for a in (view.layer_codes, view.distances,
                                                view.queue_lens, view.mips, view.assigned)]
                drawn = None
                if rng is not None:
                    twin = random.Random()
                    twin.setstate(rng.getstate())
                    drawn = twin.randrange(len(view))
            try:
                selection = select(policy, view, task, architecture, rng=rng, **kwargs)
            except PlacementError:
                selection = None
            with probe.pause:
                want = checks.oracle_select(policy.value, *columns, task.length_mi,
                                            task.input_bits, probe._config, drawn)
                want = None if want is None else int(view.vm_ids[want])
                chosen = None if selection is None else selection.vm_id
                if want != chosen:
                    probe._errors.append(
                        f"placement {probe._selects} chose {chosen}, oracle {want}")
            if selection is None:
                raise PlacementError("no feasible candidate")
            return selection

        return select_checked


class Bench:
    def __init__(self, workload, seed: int, trace: bool, tiny: bool, inject: str | None):
        from satmist import sweep
        from satmist.config import parse_config
        from satmist.orchestrate import PolicyId

        self.sweep = sweep
        self.base = parse_config(workload.config_text)
        if tiny:
            self.base = replace(self.base, duration_s=TINY_DURATION_S)
        self.out_dir = BENCH_DIR / "out" / workload.name
        self.spec = sweep.SweepSpec(
            satellite_counts=workload.mist_counts,
            policies=tuple(PolicyId(p) for p in POLICIES),
            seeds=workload.seeds(seed),
            output_dir=self.out_dir,
        )
        self.runs_per_round = len(workload.mist_counts) * len(POLICIES) * len(workload.seed_offsets)
        self.pause = spans.Pause()
        self.tracer = None
        if trace:
            self.tracer = spans.Tracer(self.pause)
            spans.install(self.tracer)
        self.probe = Probe(self.pause, trace, inject)
        self.probe.install()
        self.rounds: list[Round] = []

    def run_round(self) -> None:
        csv_path = self.out_dir / "results.csv"
        csv_path.unlink(missing_ok=True)
        self.probe.runs = []
        paused = self.pause.total
        start = perf_counter()
        try:
            self.sweep.run_sweep(self.spec, self.base, parallel=1)
            failed = False
        except Exception:  # a run that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            failed = True
        wall = perf_counter() - start - (self.pause.total - paused)
        if failed:
            self.rounds.append(Round(wall, self.probe.runs, None))
            return
        data = csv_path.read_bytes()
        self.rounds.append(Round(wall, self.probe.runs, hashlib.sha256(data).hexdigest(),
                                 csv_rows=data.count(b"\n") - 1))

    def measure(self, seconds: float) -> None:
        start = perf_counter()
        lengths = []
        while True:
            t0 = perf_counter()
            self.run_round()
            lengths.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(lengths) > seconds:
                return

    @property
    def attempted(self) -> int:
        return self.runs_per_round * len(self.rounds)

    @property
    def failed(self) -> int:
        return sum(self.runs_per_round - sum(r.error is None for r in rnd.runs)
                   for rnd in self.rounds)

    def errors(self) -> list[str]:
        return [r.error for rnd in self.rounds for r in rnd.runs if r.error]

    def completed(self) -> list[Round]:
        return [rnd for rnd in self.rounds if rnd.digest is not None]

    def correct(self) -> bool:
        """Identical results.csv in every round, one row per run."""
        done = self.completed()
        return (len({rnd.digest for rnd in done}) <= 1
                and all(rnd.csv_rows == self.runs_per_round for rnd in done))

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Medians over rounds of host times scaled to the reference host speed."""
        done = self.completed()

        def rate(runs) -> float:
            return sum(r.generated for r in runs) / sum(r.run_s * r.speed for r in runs)

        out = {
            "wall_s": (statistics.median(r.wall_s * r.speed for r in done), "s"),
            "setup_s": (statistics.median(sum(x.setup_s * x.setup_speed for x in r.runs)
                                          for r in done), "s"),
            "tasks_per_s": (statistics.median(rate(r.runs) for r in done), "tasks/s"),
        }
        for policy in POLICIES:
            out[f"tasks_per_s.{policy}"] = (statistics.median(
                rate([x for x in r.runs if x.policy == policy]) for r in done), "tasks/s")
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="cut every horizon to a second (self-test)")
    parser.add_argument("--inject", choices=("conservation", "energy"),
                        help="corrupt each run's record or transfers (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "satmist" / "__init__.py").is_file():
        print(f"error: no satmist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import satmist

    if Path(satmist.__file__).resolve().parent != SRC / "satmist":
        print(f"error: imported satmist from {satmist.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace), args.tiny, args.inject)
    bench.measure(args.seconds)
    done = bench.completed()
    for error in bench.errors()[:5]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(bench.rounds)} rounds of {bench.runs_per_round} runs, "
          f"{bench.failed} of {bench.attempted} runs failed")
    if not done:
        print("error: no round completed", file=sys.stderr)
        return 1
    digests = sorted({rnd.digest for rnd in done})
    print(f"results.csv sha256 {' '.join(digests)} "
          f"({'identical' if len(digests) == 1 else 'DIFFERS'} across {len(done)} rounds)")
    if args.trace:
        metrics = spans.per_layer_metrics(bench.tracer, len(bench.rounds))
        wall = statistics.median(r.wall_s for r in done)
        scaled = statistics.median(r.wall_s * r.speed for r in done)
        print(f"traced wall_s {wall} s unscaled, {scaled} s scaled "
              "(median over rounds, checks excluded)")
        shares = spans.run_breakdown(bench.tracer)
        print("share of Simulation.run: " + ", ".join(
            f"{layer} {100 * share:.1f}%" for layer, share in shares.items()))
    else:
        metrics = bench.end_to_end()
        speeds = [r.speed for rnd in done for r in rnd.runs]
        print(f"host speed relative to the reference: median {statistics.median(speeds):.3f}, "
              f"range {min(speeds):.3f}-{max(speeds):.3f}; unscaled wall_s "
              f"{statistics.median(r.wall_s for r in done):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": bench.correct(),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
