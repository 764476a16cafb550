from __future__ import annotations

import io
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from satmist.config import (
    _KEYS,
    MAX_VMS,
    SimulationConfig,
    _field,
    _parse_float,
    load_config_file,
    parse_config,
    parse_policy_name,
    validate,
)
from satmist.errors import ConfigurationError
from satmist.infra import DEFAULT_PROFILES
from satmist.layers import Layer
from satmist.netenergy import LinkParams, RadioParams
from satmist.orbital import ConstellationSpec, Phasing
from satmist.orchestrate import PolicyId


def test_defaults_without_a_config():
    for cfg in (parse_config(None), parse_config(""), SimulationConfig()):
        assert cfg.duration_s == 600.0
        assert cfg.constellation.mist == 1000
        assert cfg.constellation.edge_dc == 24
        assert cfg.constellation.cloud == 18
        assert cfg.constellation.phasing is Phasing.WALKER_DELTA
        assert cfg.constellation.altitude_by_layer[Layer.MIST] == 400_000.0
        assert cfg.constellation.altitude_by_layer[Layer.EDGE_DC] == 2_000_000.0
        assert cfg.constellation.altitude_by_layer[Layer.CLOUD] == 10_000_000.0
        assert cfg.link.bandwidth_bps == 1e9
        assert cfg.link.propagation_speed_mps == 3e8
        assert cfg.link.range_by_layer[Layer.MIST] == 32e6
        assert cfg.link.range_by_layer[Layer.EDGE_DC] == 36e6
        assert cfg.link.range_by_layer[Layer.CLOUD] == 40e6
        assert cfg.radio.e_elec == 5e-8
        assert cfg.radio.eps_fs == 1e-11
        assert cfg.radio.eps_mp == 1.3e-15
        assert cfg.task.rate_per_min == 20.0
        assert cfg.task.max_latency_s == 12.0
        assert cfg.task.rate_is_global is False
        assert cfg.profiles[Layer.MIST].mips == 10_000.0
        assert cfg.profiles[Layer.EDGE_DC].mips == 40_000.0
        assert cfg.profiles[Layer.CLOUD].mips == 100_000.0
        assert cfg.policy is PolicyId.DISTANCE_ONLY
        assert cfg.architecture == frozenset(Layer)
        assert cfg.tradeoff_cloud_weight == 1.2
        assert cfg.seed == 1


def test_every_key_overrides_its_field():
    cfg = parse_config(
        "simulation.duration_s=120\n"
        "constellation.mist=7\n"
        "constellation.edge_dc=3\n"
        "constellation.cloud=2\n"
        "constellation.phasing=random_uniform\n"
        "orbit.mist_altitude_m=500000\n"
        "orbit.edge_altitude_m=2500000\n"
        "orbit.cloud_altitude_m=11000000\n"
        "link.bandwidth_bps=2e9\n"
        "link.speed_mps=2.9e8\n"
        "link.range_mist_m=3e7\n"
        "link.range_edge_m=3.5e7\n"
        "link.range_cloud_m=4.5e7\n"
        "radio.e_elec=6e-8\n"
        "radio.eps_fs=2e-11\n"
        "radio.eps_mp=1e-15\n"
        "task.rate_per_min=5\n"
        "task.rate_is_global=true\n"
        "task.length_mi=1234\n"
        "task.input_bits=1e6\n"
        "task.output_bits=1e5\n"
        "task.max_latency_s=8\n"
        "vm.mist_mips=9000\n"
        "vm.edge_mips=41000\n"
        "vm.cloud_mips=99000\n"
        "policy.name=trade_off\n"
        "policy.tradeoff_cloud_weight=2.5\n"
        "architecture.layers=mist,cloud\n"
        "rng.seed=99\n"
    )
    assert cfg.duration_s == 120.0
    assert (cfg.constellation.mist, cfg.constellation.edge_dc,
            cfg.constellation.cloud) == (7, 3, 2)
    assert cfg.constellation.phasing is Phasing.RANDOM_UNIFORM
    assert cfg.constellation.altitude_by_layer[Layer.MIST] == 500_000.0
    assert cfg.constellation.altitude_by_layer[Layer.EDGE_DC] == 2_500_000.0
    assert cfg.constellation.altitude_by_layer[Layer.CLOUD] == 11_000_000.0
    assert cfg.link.bandwidth_bps == 2e9
    assert cfg.link.propagation_speed_mps == 2.9e8
    assert cfg.link.range_by_layer[Layer.MIST] == 3e7
    assert cfg.link.range_by_layer[Layer.EDGE_DC] == 3.5e7
    assert cfg.link.range_by_layer[Layer.CLOUD] == 4.5e7
    assert (cfg.radio.e_elec, cfg.radio.eps_fs, cfg.radio.eps_mp) == (
        6e-8, 2e-11, 1e-15)
    assert cfg.task.rate_per_min == 5.0
    assert cfg.task.rate_is_global is True
    assert cfg.task.length_mi == 1234.0
    assert cfg.task.input_bits == 1e6
    assert cfg.task.output_bits == 1e5
    assert cfg.task.max_latency_s == 8.0
    assert cfg.profiles[Layer.MIST].mips == 9000.0
    assert cfg.profiles[Layer.EDGE_DC].mips == 41_000.0
    assert cfg.profiles[Layer.CLOUD].mips == 99_000.0
    assert cfg.policy is PolicyId.TRADE_OFF
    assert cfg.tradeoff_cloud_weight == 2.5
    assert cfg.architecture == frozenset({Layer.MIST, Layer.CLOUD})
    assert cfg.seed == 99
    assert cfg.constellation.rng_seed == 99


def test_comments_blanks_and_whitespace():
    cfg = parse_config(
        "# header comment\n"
        "\n"
        "   constellation.mist = 4   \n"
        "# trailing comment\n"
    )
    assert cfg.constellation.mist == 4


def test_readme_configuration_table_matches_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| ([^|]+) \|", section, flags=re.M)
    assert sorted(key for key, _ in rows) == sorted(_KEYS)
    defaults = SimulationConfig()
    for key, cell in rows:
        parser, path, _ = _KEYS[key]
        assert parser(cell.strip()) == _field(defaults, path), key


def test_parsing_leaves_shared_defaults_unchanged():
    before = dict(DEFAULT_PROFILES)
    cfg = parse_config("vm.mist_mips=9000\n")
    assert cfg.profiles[Layer.MIST].mips == 9000.0
    assert DEFAULT_PROFILES == before
    assert DEFAULT_PROFILES[Layer.MIST].mips == 10_000.0
    assert SimulationConfig().profiles[Layer.MIST].mips == 10_000.0


def test_errors_carry_line_numbers_and_key_names():
    with pytest.raises(ConfigurationError, match=r"line 1.*duration_s"):
        parse_config("simulation.duration_s=abc\n")
    with pytest.raises(ConfigurationError, match=r"line 3.*unknown key"):
        parse_config("constellation.mist=5\n\nnot.a.key=1\n")
    with pytest.raises(ConfigurationError, match=r"line 2.*key=value"):
        parse_config("constellation.mist=5\njust words\n")


def test_policy_name_parsing():
    assert parse_policy_name("distance_only") is PolicyId.DISTANCE_ONLY
    assert parse_policy_name("Round_Robin") is PolicyId.ROUND_ROBIN
    assert parse_policy_name("wg") is PolicyId.WEIGHT_GREEDY
    assert parse_policy_name("weight_greedy") is PolicyId.WEIGHT_GREEDY
    assert parse_policy_name("random_vm") is PolicyId.RANDOM_VM
    with pytest.raises(ConfigurationError, match="trade_off"):
        parse_policy_name("nearest")


def test_architecture_layer_parsing():
    with pytest.raises(ConfigurationError, match="unknown layer"):
        parse_config("architecture.layers=mist,fog\n")
    with pytest.raises(ConfigurationError, match="at least one layer"):
        parse_config("architecture.layers=\n")


def test_phasing_parse_rejects_unknown():
    with pytest.raises(ConfigurationError, match="walker_delta"):
        parse_config("constellation.phasing=shuffled\n")


def test_bool_values():
    for text, expected in (
        ("true", True), ("1", True), ("yes", True), ("on", True),
        ("false", False), ("0", False), ("no", False), ("off", False),
    ):
        cfg = parse_config(f"task.rate_is_global={text}\n")
        assert cfg.task.rate_is_global is expected
    with pytest.raises(ConfigurationError, match="boolean"):
        parse_config("task.rate_is_global=maybe\n")


@pytest.mark.parametrize(
    "line",
    [
        "simulation.duration_s=0",
        "simulation.duration_s=-5",
        "constellation.mist=-1",
        "orbit.mist_altitude_m=100000",
        "link.bandwidth_bps=0",
        "link.speed_mps=0",
        "link.range_mist_m=0",
        "radio.eps_fs=0",
        "radio.eps_mp=-1e-15",
        "task.length_mi=0",
        "task.input_bits=-1",
        "task.max_latency_s=0",
        "task.rate_per_min=-1",
        "vm.cloud_mips=0",
        "policy.tradeoff_cloud_weight=0",
        "orbit.edge_altitude_m=399999",
        "orbit.cloud_altitude_m=0",
        "link.range_edge_m=0",
        "link.range_cloud_m=-1",
        "task.output_bits=-1",
        "constellation.edge_dc=-1",
        "constellation.cloud=-1",
    ],
)
def test_semantic_rejections(line):
    key = line.split("=")[0]
    # the three counts share one cross-field check and message
    name = "satellite counts" if key.startswith("constellation.") else re.escape(key)
    with pytest.raises(ConfigurationError, match=name):
        parse_config(line + "\n")


def test_empty_constellation_rejected():
    with pytest.raises(ConfigurationError, match="at least one satellite"):
        parse_config(
            "constellation.mist=0\nconstellation.edge_dc=0\nconstellation.cloud=0\n"
        )


def test_nan_rejected():
    with pytest.raises(ConfigurationError, match="NaN"):
        parse_config("task.rate_per_min=nan\n")


_NON_FINITE = [
    "simulation.duration_s=inf",
    "task.rate_per_min=inf",
    "link.range_mist_m=inf",
    "link.range_edge_m=inf",
    "link.range_cloud_m=inf",
    "radio.eps_mp=-inf",
    "task.input_bits=nan",
]
_NON_FINITE += [
    f"{key}=nan" for key, (parser, _, _) in _KEYS.items()
    if parser is _parse_float and key not in {line.split("=")[0] for line in _NON_FINITE}
]


@pytest.mark.parametrize("line", _NON_FINITE)
def test_non_finite_values_rejected(line):
    # parse only: the infinite horizons and rates never terminate if run
    key = line.split("=")[0]
    with pytest.raises(ConfigurationError, match=rf"{key} must be finite, not NaN or infinite"):
        parse_config(line + "\n")


def _with_profile(layer, **changes):
    profiles = dict(DEFAULT_PROFILES)
    profiles[layer] = replace(profiles[layer], **changes)
    return profiles


def _without(mapping, layer):
    return {key: value for key, value in mapping.items() if key is not layer}


# Configs built through the library, not parsed: validate alone must
# reject each one, since the dataclass constructors check nothing.
@pytest.mark.parametrize(
    "changes",
    [
        {"duration_s": math.nan},
        {"task": replace(SimulationConfig().task, length_mi=math.inf)},
        {"radio": RadioParams(e_elec=0.0)},
        {"radio": RadioParams(eps_fs=-1e-11)},
        {"radio": RadioParams(eps_mp=0.0)},
        {"link": LinkParams(bandwidth_bps=0.0)},
        {"link": LinkParams(propagation_speed_mps=-1.0)},
        {"link": LinkParams(range_by_layer=_without(LinkParams().range_by_layer, Layer.CLOUD))},
        {"constellation": ConstellationSpec(mist=-1, edge_dc=2, cloud=0)},
        {"constellation": ConstellationSpec(mist=0, edge_dc=0, cloud=0)},
        {"constellation": ConstellationSpec(planes=0)},
        {"constellation": ConstellationSpec(
            altitude_by_layer=_without(ConstellationSpec().altitude_by_layer, Layer.EDGE_DC))},
        {"constellation": ConstellationSpec(
            altitude_by_layer={**ConstellationSpec().altitude_by_layer, Layer.MIST: 1e5})},
        {"profiles": _with_profile(Layer.EDGE_DC, mips=0.0)},
        {"profiles": _with_profile(Layer.MIST, mips=-100.0)},
        {"profiles": _without(DEFAULT_PROFILES, Layer.MIST)},
    ],
    ids=[
        "duration=nan", "length=inf", "e_elec=0", "eps_fs<0", "eps_mp=0", "bandwidth=0", "speed<0", "range-missing-cloud",
        "mist<0", "no-satellites", "planes=0", "altitude-missing-edge", "altitude<floor",
        "edge-mips=0", "mist-mips<0", "profile-missing-mist",
    ],
)
def test_validate_rejects_api_built_configs(changes):
    config = replace(SimulationConfig(), **changes)
    with pytest.raises(ConfigurationError):
        validate(config)


def test_parse_accepts_bytes_and_streams():
    text = "constellation.mist=6\n"
    assert parse_config(text.encode()).constellation.mist == 6
    assert parse_config(io.StringIO(text)).constellation.mist == 6
    assert parse_config(io.BytesIO(text.encode())).constellation.mist == 6


def test_load_config_file(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("constellation.mist=3\nrng.seed=42\n")
    cfg = load_config_file(path)
    assert cfg.constellation.mist == 3
    assert cfg.seed == 42


def test_byte_order_mark_accepted(tmp_path):
    data = b"\xef\xbb\xbfconstellation.mist=5\n"
    assert parse_config(data).constellation.mist == 5
    assert parse_config(io.StringIO(data.decode())).constellation.mist == 5
    path = tmp_path / "bom.cfg"
    path.write_bytes(data)
    assert load_config_file(path).constellation.mist == 5


def test_non_utf8_bytes_rejected_with_their_offset():
    with pytest.raises(ConfigurationError, match=r"not UTF-8: byte 0xff at offset 24"):
        parse_config(b"simulation.duration_s=1\n\xff\xfe=3\n")
    with pytest.raises(ConfigurationError, match=r"not UTF-8: byte 0xe9 at offset 0"):
        parse_config(io.BytesIO(b"\xe9=1\n"))


def test_validate_accepts_defaults():
    validate(SimulationConfig())


@pytest.mark.parametrize(
    "text",
    [
        "task.rate_per_min=1e9\n",
        "task.rate_per_min=60.001\nsimulation.duration_s=2000\n",
        "constellation.mist=1001\ntask.rate_per_min=60\nsimulation.duration_s=2000\n",
        "task.rate_is_global=true\ntask.rate_per_min=121\nsimulation.duration_s=1000000\n",
    ],
)
def test_task_count_bounded(text):
    # parse only: rate_per_min=1e9 would create 1e13 tasks before the run starts
    with pytest.raises(ConfigurationError, match="expected tasks"):
        parse_config(text)


def test_task_count_bound_is_inclusive():
    # 60/min x 2,000 s x 1,000 mist and 120/min x 1e6 s shared are 2,000,000 exactly
    assert parse_config("task.rate_per_min=60\nsimulation.duration_s=2000\n").duration_s == 2000
    shared = parse_config(
        "task.rate_is_global=true\ntask.rate_per_min=120\nsimulation.duration_s=1000000\n")
    assert shared.task.rate_per_min == 120
    with pytest.raises(ConfigurationError, match="expected tasks"):
        validate(replace(SimulationConfig(), duration_s=6001.0))


@pytest.mark.parametrize(
    "text",
    [
        "task.rate_per_min=0\nconstellation.mist=100000000\n",
        "constellation.edge_dc=100000000\n",
        "constellation.mist=0\nconstellation.edge_dc=0\nconstellation.cloud=100001\n",
    ],
)
def test_vm_count_bounded(text):
    # parse only: 1e8 satellites would take about 200 GB before the run starts
    with pytest.raises(ConfigurationError, match="VMs"):
        parse_config(text)


def test_vm_count_bound_is_inclusive():
    # rate 0 keeps the expected-task bound out of the way
    idle = replace(SimulationConfig(), task=replace(SimulationConfig().task, rate_per_min=0.0))
    at_bound = ConstellationSpec(mist=MAX_VMS - 42, edge_dc=24, cloud=18)
    validate(replace(idle, constellation=at_bound))
    with pytest.raises(ConfigurationError, match=r"at most 100,000 VMs, got 100,001"):
        validate(replace(idle, constellation=replace(at_bound, mist=at_bound.mist + 1)))
    validate(replace(idle, constellation=ConstellationSpec(planes=MAX_VMS)))
    with pytest.raises(ConfigurationError, match="planes must be at most"):
        validate(replace(idle, constellation=ConstellationSpec(planes=MAX_VMS + 1)))
