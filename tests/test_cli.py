from __future__ import annotations

import csv
import math

import pytest

from satmist import cli
from satmist.cli import MAX_STEPS, main
from satmist.config import parse_config
from satmist.errors import ConfigurationError
from satmist.metrics import CSV_COLUMNS
from satmist.orbital import TRACE_HEADER, OrbitPositions, build_constellation
from satmist.orchestrate import PolicyId
from support import parse_csv

FAST = "constellation.mist=2\nconstellation.edge_dc=1\nconstellation.cloud=1\nsimulation.duration_s=20\n"


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST)
    return path


def test_run_writes_csv_to_stdout(fast_config, capsys):
    code = main(["run", "--config", str(fast_config), "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    records = parse_csv(out)
    assert len(records) == 1
    assert records[0].policy is PolicyId.DISTANCE_ONLY
    assert records[0].satellite_count == 2
    assert records[0].seed == 3
    assert records[0].generated > 0


def test_run_policy_and_satellites_flags(fast_config, capsys):
    code = main([
        "run", "--config", str(fast_config), "--satellites", "3",
        "--policy", "round_robin",
    ])
    assert code == 0
    record = parse_csv(capsys.readouterr().out)[0]
    assert record.policy is PolicyId.ROUND_ROBIN
    assert record.satellite_count == 3


def test_run_writes_out_dir(fast_config, tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--config", str(fast_config), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert parse_csv((out / "results.csv").read_bytes())


def test_run_without_config_uses_defaults(capsys):
    # defaults are the full-scale constellation; shrink to stay fast
    code = main(["run", "--satellites", "1", "--seed", "2"])
    assert code == 0
    record = parse_csv(capsys.readouterr().out)[0]
    assert record.satellite_count == 1


def test_sweep_stdout_grid(fast_config, capsys):
    code = main([
        "sweep", "--config", str(fast_config), "--counts", "2,3",
        "--policies", "distance_only,random_vm", "--seeds", "1,2",
    ])
    assert code == 0
    records = parse_csv(capsys.readouterr().out)
    assert len(records) == 8
    assert {r.policy for r in records} == {PolicyId.DISTANCE_ONLY, PolicyId.RANDOM_VM}
    assert {r.satellite_count for r in records} == {2, 3}


def test_sweep_output_dir(fast_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(fast_config), "--counts", "2",
        "--policies", "distance_only", "--seeds", "1",
        "--parallel", "2", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert (out / "results.csv").exists()
    assert (out / "plot_total_energy_db.csv").exists()


def test_trace_export_round_trip(fast_config, tmp_path, capsys):
    out = tmp_path / "orbits.csv"
    code = main([
        "trace-export", "--config", str(fast_config), "--step", "10",
        "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(TRACE_HEADER)
    with open(out, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    # 4 satellites sampled at t = 0, 10, 20, with the exact coordinates
    layered = build_constellation(parse_config(FAST).constellation)
    provider = OrbitPositions([e for _, e in layered])
    expected = [(str(i), t, *provider.position_one(i, t))
                for i in range(4) for t in (0.0, 10.0, 20.0)]
    got = [(sat_id, *map(float, values)) for sat_id, *values in rows]
    assert got == expected


def test_trace_export_stdout(fast_config, capsys):
    code = main(["trace-export", "--config", str(fast_config)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(TRACE_HEADER)
    # 4 satellites x 21 samples (t = 0..20 at the default 1 s step)
    assert len(lines) == 1 + 4 * 21


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_contents(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("simulation.duration_s=abc\n")
    code = main(["run", "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "duration_s" in err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"simulation.duration_s=1\n\xff\xfe=3\n")
    code = main(["run", "--config", str(path)])
    assert code == 1
    assert "not UTF-8: byte 0xff at offset 24" in capsys.readouterr().err


def test_tick_s_is_an_unknown_key(tmp_path, capsys):
    # the simulator schedules no mobility ticks, so it has no tick interval to set
    text = FAST + "simulation.tick_s=1\n"
    with pytest.raises(ConfigurationError, match=r"line 5: unknown key 'simulation\.tick_s'"):
        parse_config(text)
    path = tmp_path / "ticks.cfg"
    path.write_text(text)
    assert main(["run", "--config", str(path)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_bad_policy_flag(fast_config, capsys):
    code = main(["run", "--config", str(fast_config), "--policy", "closest"])
    assert code == 1


def test_invalid_override_combination(capsys):
    code = main(["run", "--satellites", "-5"])
    assert code == 1


def test_usage_errors_exit_nonzero(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["sweep", "--counts", "ten"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["run", "--help"]) == 0


def test_zero_step_rejected(fast_config, capsys):
    code = main(["trace-export", "--config", str(fast_config), "--step", "0"])
    assert code == 1


@pytest.fixture
def no_trace_work(monkeypatch):
    """Fail the test if trace-export starts building the constellation or writing samples."""
    def refuse(*args, **kwargs):
        raise AssertionError("trace-export started work on a rejected step")

    monkeypatch.setattr(cli, "build_constellation", refuse)
    monkeypatch.setattr(cli, "dump_trace", refuse)


@pytest.mark.parametrize("step", ["nan", "inf", "-inf", "-1"])
def test_non_finite_or_negative_step_rejected(fast_config, capsys, no_trace_work, step):
    code = main(["trace-export", "--config", str(fast_config), f"--step={step}"])
    assert code == 1
    assert "step must be positive and finite" in capsys.readouterr().err


# 1,000,000 steps of 2**-16 s, a duration and a step both exact in binary
EDGE_DURATION_S = MAX_STEPS * 2.0**-16


@pytest.fixture
def edge_config(tmp_path):
    path = tmp_path / "edge.cfg"
    path.write_text(FAST.replace("simulation.duration_s=20",
                                 f"simulation.duration_s={EDGE_DURATION_S!r}"))
    return path


def test_step_sample_count_bounded(edge_config, capsys, no_trace_work):
    # 15.26 s at 1e-12 s would be 1.5e13 sample times
    code = main(["trace-export", "--config", str(edge_config), "--step=1e-12"])
    assert code == 1
    assert f"at most {MAX_STEPS:,} steps" in capsys.readouterr().err
    # one rounding step below 2**-16 s puts the count just past the bound
    code = main(["trace-export", "--config", str(edge_config),
                 f"--step={math.nextafter(2.0**-16, 0.0)!r}"])
    assert code == 1


def test_step_sample_count_bound_is_inclusive(edge_config, monkeypatch):
    times_written = []
    monkeypatch.setattr(cli, "dump_trace",
                        lambda stream, provider, ids, times: times_written.append(len(times)))
    assert main(["trace-export", "--config", str(edge_config), f"--step={2.0**-16!r}"]) == 0
    assert times_written == [MAX_STEPS + 1]  # t = 0 and each of the MAX_STEPS steps


def test_unwritable_out_is_a_runtime_error(fast_config, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    # --out points at a file, so the trace open() fails with OSError
    code = main([
        "trace-export", "--config", str(fast_config),
        "--out", str(blocker / "nested.csv"),
    ])
    assert code == 2


def test_stdout_header_matches_metrics_columns(fast_config, capsys):
    main(["run", "--config", str(fast_config)])
    header = capsys.readouterr().out.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
