from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satmist.config import parse_config
from satmist.errors import ConfigurationError
from satmist.infra import (
    DEFAULT_PROFILES,
    Vm,
    build_nodes,
    utilization_pct,
)
from satmist.layers import Layer
from satmist.orbital import ConstellationSpec, build_constellation


def make_vm(mips=10_000.0) -> Vm:
    return Vm(0, Layer.MIST, mips)


def test_default_layer_mips():
    assert DEFAULT_PROFILES[Layer.MIST].mips == 10_000.0
    assert DEFAULT_PROFILES[Layer.EDGE_DC].mips == 40_000.0
    assert DEFAULT_PROFILES[Layer.CLOUD].mips == 100_000.0


def test_enqueue_on_idle_vm_runs_immediately():
    vm = make_vm()
    assert vm.enqueue(now=5.0, exec_seconds=2.0, horizon=math.inf) == 7.0
    assert vm.busy_until == 7.0


def test_enqueue_backlog_serializes_fifo():
    # hand-traced: arrivals at 0, 1, 1.5 with 2 s service each
    vm = make_vm()
    assert vm.enqueue(0.0, 2.0, math.inf) == 2.0
    assert vm.enqueue(1.0, 2.0, math.inf) == 4.0
    assert vm.enqueue(1.5, 2.0, math.inf) == 6.0
    assert vm.busy_time_total == 6.0


def test_enqueue_after_idle_gap_restarts_clock():
    vm = make_vm()
    vm.enqueue(0.0, 1.0, math.inf)
    assert vm.enqueue(10.0, 3.0, math.inf) == 13.0
    assert vm.busy_time_total == 4.0


def test_horizon_clips_busy_accounting():
    vm = make_vm()
    vm.enqueue(9.0, 2.0, horizon=10.0)  # only [9, 10] counts
    assert vm.busy_time_total == 1.0
    vm2 = make_vm()
    vm2.enqueue(11.0, 2.0, horizon=10.0)  # entirely past the horizon
    assert vm2.busy_time_total == 0.0
    vm3 = make_vm()
    vm3.enqueue(0.0, 2.0, horizon=10.0)  # entirely inside
    assert vm3.busy_time_total == 2.0


def test_utilization_pct_hand_value():
    vm = make_vm()
    vm.enqueue(0.0, 30.0, math.inf)
    assert utilization_pct(vm, 60.0) == 50.0


def test_utilization_clamped_to_100():
    vm = make_vm()
    vm.enqueue(0.0, 120.0, math.inf)
    assert utilization_pct(vm, 60.0) == 100.0


def test_utilization_requires_positive_duration():
    with pytest.raises(ValueError):
        utilization_pct(make_vm(), 0.0)


def test_vm_rejects_non_positive_mips():
    for line in ("vm.mist_mips=0", "vm.edge_mips=-100"):
        with pytest.raises(ConfigurationError, match=line.split("=")[0]):
            parse_config(line + "\n")


def test_build_nodes_layout():
    layered = build_constellation(ConstellationSpec(mist=3, edge_dc=2, cloud=1))
    nodes, vms = build_nodes(layered)
    assert [n.id for n in nodes] == [0, 1, 2, 3, 4, 5]
    assert [n.layer for n in nodes] == [Layer.MIST] * 3 + [Layer.EDGE_DC] * 2 + [Layer.CLOUD]
    # VM i is on satellite i, with that satellite's layer
    assert [vm.id for vm in vms] == [0, 1, 2, 3, 4, 5]
    assert [vm.host_layer for vm in vms] == [n.layer for n in nodes]
    assert vms[0].mips == 10_000.0
    assert vms[3].mips == 40_000.0
    assert vms[5].mips == 100_000.0


@given(st.lists(st.tuples(st.floats(0, 1e4), st.floats(0, 100)), min_size=1, max_size=40))
def test_completion_times_never_decrease(arrivals):
    vm = make_vm()
    last_completion = 0.0
    now = 0.0
    for gap, exec_s in sorted(arrivals):
        now = gap
        completion = vm.enqueue(now, exec_s, math.inf)
        assert completion >= last_completion
        assert completion >= now + exec_s
        last_completion = completion
