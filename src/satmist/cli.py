"""Command-line entry point.

Subcommands: run (one simulation, CSV on stdout or --out DIR),
sweep (count x policy x seed grid with CSV artifacts), trace-export
(satellite positions over time in the trace CSV format). Exit codes:
0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import (
    SimulationConfig,
    load_config_file,
    parse_config,
    parse_policy_name,
    validate,
)
from .engine import Simulation
from .errors import ConfigurationError
from .metrics import emit_csv
from .orbital import OrbitPositions, build_constellation, dump_trace
from .orchestrate import PolicyId
from .sweep import DEFAULT_COUNTS, SweepSpec, derive_config, run_sweep

# Upper bound on the steps, duration_s / step, one trace export writes.
MAX_STEPS = 1_000_000
# Upper bound on the rows, satellites x sample times, one trace export writes:
# about 330 MB of CSV and 20 s at some 4 µs a row; the defaults at 1 s write 626,242.
MAX_ROWS = 5_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satmist",
        description="Satellite mist computing simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation and emit its metrics CSV")
    _add_config_flags(run_p)
    run_p.add_argument("--policy", help="placement policy name")
    run_p.add_argument("--out", type=Path, help="directory for results.csv (default: stdout)")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run the count x policy x seed grid")
    sweep_p.add_argument("--config", type=Path, help="config file path")
    sweep_p.add_argument("--counts", type=_int_list,
                         default=DEFAULT_COUNTS, metavar="N,N,...",
                         help="mist satellite counts (default 100..1000 step 100)")
    sweep_p.add_argument("--policies", type=_policy_list,
                         default=tuple(PolicyId), metavar="NAME,NAME,...",
                         help="policies to sweep (default: all five)")
    sweep_p.add_argument("--seeds", type=_int_list, default=(1,),
                         metavar="N,N,...", help="seeds to sweep (default: 1)")
    sweep_p.add_argument("--scale-all-layers", action="store_true",
                         help="scale edge/cloud counts with the mist count")
    sweep_p.add_argument("--parallel", type=int, default=1,
                         help="concurrent runs (default 1)")
    sweep_p.add_argument("--out", type=Path,
                         help="directory for results.csv and plot files (default: stdout)")
    sweep_p.set_defaults(func=cmd_sweep)

    trace_p = sub.add_parser("trace-export",
                             help="dump generated satellite positions as trace CSV")
    _add_config_flags(trace_p)
    trace_p.add_argument("--step", type=float, default=1.0,
                         help="sample interval in seconds (default 1)")
    trace_p.add_argument("--out", type=Path, help="output file (default: stdout)")
    trace_p.set_defaults(func=cmd_trace_export)
    return parser


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="config file path")
    sub.add_argument("--satellites", type=int, help="override the mist satellite count")
    sub.add_argument("--seed", type=int, help="override the run seed")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")


def _policy_list(text: str) -> tuple[PolicyId, ...]:
    try:
        return tuple(parse_policy_name(part) for part in text.split(",") if part.strip())
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def load_cli_config(args: argparse.Namespace) -> SimulationConfig:
    """The config file, or the defaults, with the flags applied as one grid point."""
    if getattr(args, "config", None) is not None:
        try:
            config = load_config_file(args.config)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}")
    else:
        config = parse_config(None)
    satellites, seed = getattr(args, "satellites", None), getattr(args, "seed", None)
    policy = getattr(args, "policy", None)
    config = derive_config(
        config,
        config.constellation.mist if satellites is None else satellites,
        parse_policy_name(policy) if policy else config.policy,
        config.seed if seed is None else seed,
        scale_all_layers=False,
    )
    validate(config)
    return config


def cmd_run(args: argparse.Namespace) -> int:
    config = load_cli_config(args)
    record = Simulation(config).run()
    data = emit_csv([record])
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "results.csv").write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = load_cli_config(args)
    spec = SweepSpec(
        satellite_counts=tuple(args.counts),
        policies=tuple(args.policies),
        seeds=tuple(args.seeds),
        scale_all_layers=args.scale_all_layers,
        output_dir=args.out,
    )
    records = run_sweep(spec, base, parallel=args.parallel)
    if args.out is None:
        sys.stdout.write(emit_csv(records).decode("utf-8"))
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    config = load_cli_config(args)
    step = args.step
    if not (math.isfinite(step) and step > 0):
        raise ConfigurationError(f"step must be positive and finite, got {step}")
    if config.duration_s / step > MAX_STEPS:
        raise ConfigurationError(
            f"simulation.duration_s / step must be at most {MAX_STEPS:,} steps, "
            f"got {config.duration_s / step:.3g}"
        )
    times = []
    t, k = 0.0, 0
    while t <= config.duration_s:
        times.append(t)
        k += 1
        t = k * step
    rows = config.constellation.total * len(times)
    if rows > MAX_ROWS:
        raise ConfigurationError(
            f"satellites x sample times must be at most {MAX_ROWS:,} trace rows, got {rows:,}"
        )
    layered = build_constellation(config.constellation)
    provider = OrbitPositions([elements for _, elements in layered])
    ids = range(len(layered))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            dump_trace(handle, provider, ids, times)
    else:
        dump_trace(sys.stdout, provider, ids, times)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
