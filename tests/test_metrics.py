from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satmist.infra import Vm
from satmist.layers import Layer
from satmist.metrics import (
    CSV_COLUMNS,
    MetricsRecord,
    avg_cpu,
    avg_e2e,
    emit_csv,
    energy_db_or_neg_inf,
    success_rate,
)
from satmist.orchestrate import PolicyId
from support import parse_csv


def record(**overrides) -> MetricsRecord:
    base = dict(
        policy=PolicyId.DISTANCE_ONLY,
        satellite_count=100,
        seed=1,
        generated=10,
        succeeded=9,
        failed_deadline=1,
        failed_mobility=0,
        failed_no_destination=0,
        unfinished=0,
        success_rate_pct=90.0,
        avg_e2e_s=1.25,
        total_energy_j=0.0,
        total_energy_db=float("-inf"),
        avg_vm_cpu_pct=31.5,
    )
    base.update(overrides)
    return MetricsRecord(**base)


def test_success_rate_excludes_unfinished():
    assert success_rate(9, 10, 0) == 90.0
    # 2 unfinished leave 8 finished; 8/8 finished succeeded
    assert success_rate(8, 10, 2) == 100.0
    assert success_rate(0, 10, 0) == 0.0


def test_success_rate_none_when_nothing_finished():
    assert success_rate(0, 0, 0) is None
    assert success_rate(0, 5, 5) is None


def test_success_rate_rejects_impossible_counts():
    with pytest.raises(ValueError):
        success_rate(-1, 10, 0)
    with pytest.raises(ValueError):
        success_rate(9, 10, 2)


def test_avg_e2e():
    assert avg_e2e([1.0, 2.0, 3.0]) == 2.0
    assert avg_e2e([]) is None


def test_avg_cpu_counts_idle_vms():
    busy = Vm(0, Layer.MIST, 1e4)
    busy.enqueue(0.0, 50.0, horizon=100.0)
    idle = Vm(1, Layer.MIST, 1e4)
    assert avg_cpu([busy, idle], 100.0) == 25.0
    with pytest.raises(ValueError):
        avg_cpu([], 100.0)


def test_energy_db_of_zero_is_neg_inf():
    assert energy_db_or_neg_inf(0.0) == float("-inf")
    assert energy_db_or_neg_inf(1.0) == 0.0
    assert energy_db_or_neg_inf(1e17) == pytest.approx(170.0)


def test_csv_header_and_formatting():
    data = emit_csv([record()])
    lines = data.decode().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "distance_only,100,1,10,9,1,0,0,0,90,1.25,0,-inf,31.5"


def test_csv_six_significant_digits():
    rec = record(avg_e2e_s=1.23456789, total_energy_j=6.51562341e25,
                 total_energy_db=258.139876, success_rate_pct=99.8800456)
    line = emit_csv([rec]).decode().splitlines()[1]
    assert ",99.88,1.23457,6.51562e+25,258.14," in line


def test_csv_empty_cells_for_absent_rates():
    rec = record(generated=0, succeeded=0, failed_deadline=0,
                 success_rate_pct=None, avg_e2e_s=None)
    line = emit_csv([rec]).decode().splitlines()[1]
    assert ",0,,," in line
    parsed = parse_csv(emit_csv([rec]))[0]
    assert parsed.success_rate_pct is None
    assert parsed.avg_e2e_s is None


def test_csv_round_trip():
    records = [
        record(),
        record(policy=PolicyId.TRADE_OFF, seed=3, total_energy_j=1.5e20,
               total_energy_db=201.76, success_rate_pct=98.75),
    ]
    parsed = parse_csv(emit_csv(records))
    assert len(parsed) == 2
    for original, back in zip(records, parsed):
        assert back.policy is original.policy
        assert back.satellite_count == original.satellite_count
        assert back.seed == original.seed
        assert back.generated == original.generated
        assert back.total_energy_db == pytest.approx(
            original.total_energy_db, rel=1e-5)


def test_round_trip_preserves_neg_inf():
    parsed = parse_csv(emit_csv([record()]))[0]
    assert parsed.total_energy_db == float("-inf")
    assert parsed.total_energy_j == 0.0


def test_parse_csv_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        parse_csv("")
    with pytest.raises(ValueError, match="header"):
        parse_csv("a,b,c\n")
    good = emit_csv([record()]).decode()
    truncated = good.splitlines()[0] + "\ndistance_only,1,2\n"
    with pytest.raises(ValueError, match="fields"):
        parse_csv(truncated)


def test_failed_total_property():
    rec = record(failed_deadline=2, failed_mobility=3, failed_no_destination=4)
    assert rec.failed_total == 9


@given(
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.integers(0, 1000),
)
def test_success_rate_bounds(succeeded, extra_finished, unfinished):
    generated = succeeded + extra_finished + unfinished
    rate = success_rate(succeeded, generated, unfinished)
    if generated == unfinished:
        assert rate is None
    else:
        assert 0.0 <= rate <= 100.0


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_energy_db_monotone(joules):
    assert energy_db_or_neg_inf(joules) > energy_db_or_neg_inf(joules / 10) - 10.0001
    assert energy_db_or_neg_inf(joules) == pytest.approx(
        10 * math.log10(joules), rel=1e-12)
