"""Run configuration: defaults, validation, and the flat key=value format.

Config files are UTF-8 text, one `section.key=value` per line, with `#`
starting a full-line comment and blank lines ignored. Unknown keys are
rejected, as are malformed lines and bad values; errors carry the line
number or offending key.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from typing import IO, Mapping

from .errors import ConfigurationError
from .infra import DEFAULT_PROFILES, LayerProfile
from .layers import LAYER_ORDER, Layer
from .netenergy import LinkParams, RadioParams
from .orbital import MIN_ALTITUDE_M, ConstellationSpec, Phasing
from .orchestrate import PolicyId

ALL_LAYERS: frozenset[Layer] = frozenset(LAYER_ORDER)

_POLICY_ALIASES = {
    "wg": PolicyId.WEIGHT_GREEDY,
}

# Upper bound on the mobility tick events one run schedules up front.
MAX_TICKS = 1_000_000
# Upper bound on the expected tasks one run generates up front.
MAX_TASKS = 2_000_000

# How per-layer config keys name each layer (the edge_dc layer is "edge").
_KEY_LAYER = {Layer.MIST: "mist", Layer.EDGE_DC: "edge", Layer.CLOUD: "cloud"}


@dataclass(frozen=True)
class TaskProfile:
    """Workload description for generated tasks.

    rate_per_min applies per mist satellite; set rate_is_global to share
    one aggregate rate across all mist satellites instead.
    """

    rate_per_min: float = 20.0
    length_mi: float = 10_000.0
    input_bits: float = 1.6e9
    output_bits: float = 8e5
    max_latency_s: float = 12.0
    rate_is_global: bool = False


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a single simulation run depends on."""

    duration_s: float = 600.0
    tick_s: float = 1.0
    constellation: ConstellationSpec = field(default_factory=ConstellationSpec)
    profiles: Mapping[Layer, LayerProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )
    link: LinkParams = field(default_factory=LinkParams)
    radio: RadioParams = field(default_factory=RadioParams)
    task: TaskProfile = field(default_factory=TaskProfile)
    policy: PolicyId = PolicyId.DISTANCE_ONLY
    architecture: frozenset[Layer] = ALL_LAYERS
    tradeoff_cloud_weight: float = 1.2
    seed: int = 1


def parse_policy_name(value: str) -> PolicyId:
    name = value.strip().lower()
    if name in _POLICY_ALIASES:
        return _POLICY_ALIASES[name]
    try:
        return PolicyId(name)
    except ValueError:
        valid = ", ".join(p.value for p in PolicyId)
        raise ConfigurationError(f"unknown policy {value!r}; expected one of: {valid}") from None


def _parse_layers(value: str) -> frozenset[Layer]:
    names = [part.strip() for part in value.split(",") if part.strip()]
    if not names:
        raise ConfigurationError("architecture.layers needs at least one layer")
    layers = set()
    for name in names:
        try:
            layers.add(Layer(name.lower()))
        except ValueError:
            valid = ", ".join(layer.value for layer in LAYER_ORDER)
            raise ConfigurationError(
                f"unknown layer {name!r}; expected a comma list of: {valid}"
            ) from None
    return frozenset(layers)


def _parse_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(f"expected an integer, got {value!r}") from None


def _parse_float(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigurationError(f"expected a number, got {value!r}") from None


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {value!r}")


def _parse_phasing(value: str) -> Phasing:
    try:
        return Phasing(value.strip().lower())
    except ValueError:
        valid = ", ".join(p.value for p in Phasing)
        raise ConfigurationError(f"unknown phasing {value!r}; expected one of: {valid}") from None


# key -> (value parser, overrides-dict field)
_KEYS = {
    "simulation.duration_s": (_parse_float, "duration_s"),
    "simulation.tick_s": (_parse_float, "tick_s"),
    "constellation.mist": (_parse_int, "mist"),
    "constellation.edge_dc": (_parse_int, "edge_dc"),
    "constellation.cloud": (_parse_int, "cloud"),
    "constellation.phasing": (_parse_phasing, "phasing"),
    "orbit.mist_altitude_m": (_parse_float, "mist_altitude_m"),
    "orbit.edge_altitude_m": (_parse_float, "edge_altitude_m"),
    "orbit.cloud_altitude_m": (_parse_float, "cloud_altitude_m"),
    "link.bandwidth_bps": (_parse_float, "bandwidth_bps"),
    "link.speed_mps": (_parse_float, "speed_mps"),
    "link.range_mist_m": (_parse_float, "range_mist_m"),
    "link.range_edge_m": (_parse_float, "range_edge_m"),
    "link.range_cloud_m": (_parse_float, "range_cloud_m"),
    "radio.e_elec": (_parse_float, "e_elec"),
    "radio.eps_fs": (_parse_float, "eps_fs"),
    "radio.eps_mp": (_parse_float, "eps_mp"),
    "task.rate_per_min": (_parse_float, "rate_per_min"),
    "task.rate_is_global": (_parse_bool, "rate_is_global"),
    "task.length_mi": (_parse_float, "length_mi"),
    "task.input_bits": (_parse_float, "input_bits"),
    "task.output_bits": (_parse_float, "output_bits"),
    "task.max_latency_s": (_parse_float, "max_latency_s"),
    "vm.mist_mips": (_parse_float, "mist_mips"),
    "vm.edge_mips": (_parse_float, "edge_mips"),
    "vm.cloud_mips": (_parse_float, "cloud_mips"),
    "policy.name": (parse_policy_name, "policy"),
    "policy.tradeoff_cloud_weight": (_parse_float, "tradeoff_cloud_weight"),
    "architecture.layers": (_parse_layers, "architecture"),
    "rng.seed": (_parse_int, "seed"),
}


def _as_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data


def parse_config(source: str | bytes | IO | None = None) -> SimulationConfig:
    """Parse a config stream; an empty or missing stream yields defaults."""
    text = _as_text(source) if source is not None else ""
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        parser, dest = _KEYS[key]
        try:
            overrides[dest] = parser(value)
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {lineno}: {key}: {exc}") from None
    return build_config(overrides)


def build_config(overrides: Mapping[str, object]) -> SimulationConfig:
    """Assemble a validated SimulationConfig from override fields."""
    o = dict(overrides)
    base = SimulationConfig()

    constellation = base.constellation
    altitude = dict(constellation.altitude_by_layer)
    ranges = dict(base.link.range_by_layer)
    profiles = dict(base.profiles)
    for layer, name in _KEY_LAYER.items():
        if f"{name}_altitude_m" in o:
            altitude[layer] = o.pop(f"{name}_altitude_m")
        if f"range_{name}_m" in o:
            ranges[layer] = o.pop(f"range_{name}_m")
        if f"{name}_mips" in o:
            profiles[layer] = replace(profiles[layer], mips=o.pop(f"{name}_mips"))

    constellation = replace(
        constellation,
        mist=o.pop("mist", constellation.mist),
        edge_dc=o.pop("edge_dc", constellation.edge_dc),
        cloud=o.pop("cloud", constellation.cloud),
        phasing=o.pop("phasing", constellation.phasing),
        altitude_by_layer=altitude,
        rng_seed=o.get("seed", base.seed),
    )
    link = LinkParams(
        bandwidth_bps=o.pop("bandwidth_bps", base.link.bandwidth_bps),
        propagation_speed_mps=o.pop("speed_mps", base.link.propagation_speed_mps),
        range_by_layer=ranges,
    )
    radio = RadioParams(
        e_elec=o.pop("e_elec", base.radio.e_elec),
        eps_fs=o.pop("eps_fs", base.radio.eps_fs),
        eps_mp=o.pop("eps_mp", base.radio.eps_mp),
    )

    task = TaskProfile(
        rate_per_min=o.pop("rate_per_min", base.task.rate_per_min),
        length_mi=o.pop("length_mi", base.task.length_mi),
        input_bits=o.pop("input_bits", base.task.input_bits),
        output_bits=o.pop("output_bits", base.task.output_bits),
        max_latency_s=o.pop("max_latency_s", base.task.max_latency_s),
        rate_is_global=o.pop("rate_is_global", base.task.rate_is_global),
    )

    config = SimulationConfig(
        duration_s=o.pop("duration_s", base.duration_s),
        tick_s=o.pop("tick_s", base.tick_s),
        constellation=constellation,
        profiles=profiles,
        link=link,
        radio=radio,
        task=task,
        policy=o.pop("policy", base.policy),
        architecture=o.pop("architecture", base.architecture),
        tradeoff_cloud_weight=o.pop("tradeoff_cloud_weight", base.tradeoff_cloud_weight),
        seed=o.pop("seed", base.seed),
    )
    if o:
        raise ConfigurationError(f"unknown override fields: {sorted(o)}")
    validate(config)
    return config


def validate(config: SimulationConfig) -> None:
    """Reject semantically invalid configurations before any event runs.

    This is the only place config values are checked: the parameter
    dataclasses, the node builder and the per-event functions trust them.
    """
    c, link, task = config.constellation, config.link, config.task
    per_layer = {
        "constellation.altitude_by_layer": c.altitude_by_layer,
        "link.range_by_layer": link.range_by_layer,
        "profiles": config.profiles,
    }
    for name, mapping in per_layer.items():
        missing = [layer.value for layer in LAYER_ORDER if layer not in mapping]
        if missing:
            raise ConfigurationError(f"{name} has no entry for {', '.join(missing)}")

    positive = {
        "simulation.duration_s": config.duration_s,
        "simulation.tick_s": config.tick_s,
        "link.bandwidth_bps": link.bandwidth_bps,
        "link.speed_mps": link.propagation_speed_mps,
        "radio.e_elec": config.radio.e_elec,
        "radio.eps_fs": config.radio.eps_fs,
        "radio.eps_mp": config.radio.eps_mp,
        "task.length_mi": task.length_mi,
        "task.max_latency_s": task.max_latency_s,
        "policy.tradeoff_cloud_weight": config.tradeoff_cloud_weight,
    }
    for layer, name in _KEY_LAYER.items():
        positive[f"link.range_{name}_m"] = link.range_by_layer[layer]
        positive[f"vm.{name}_mips"] = config.profiles[layer].mips
    non_negative = {
        "task.rate_per_min": task.rate_per_min,
        "task.input_bits": task.input_bits,
        "task.output_bits": task.output_bits,
    }
    altitudes = {
        f"orbit.{name}_altitude_m": c.altitude_by_layer[layer]
        for layer, name in _KEY_LAYER.items()
    }
    for name, value in {**positive, **non_negative, **altitudes}.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, not NaN or infinite, got {value}")
    for name, value in positive.items():
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")
    for name, value in non_negative.items():
        if value < 0:
            raise ConfigurationError(f"{name} must be non-negative, got {value}")
    for name, value in altitudes.items():
        if value < MIN_ALTITUDE_M:
            raise ConfigurationError(f"{name} must be >= {MIN_ALTITUDE_M:.0f} m, got {value}")

    if config.duration_s / config.tick_s > MAX_TICKS:
        raise ConfigurationError(
            f"simulation.duration_s / simulation.tick_s must be at most {MAX_TICKS:,} "
            f"mobility ticks, got {config.duration_s / config.tick_s:.3g}"
        )

    if c.mist < 0 or c.edge_dc < 0 or c.cloud < 0:
        raise ConfigurationError("satellite counts must be non-negative")
    expected_tasks = task.rate_per_min / 60.0 * config.duration_s \
        * (1 if task.rate_is_global else c.mist)
    if expected_tasks > MAX_TASKS:
        raise ConfigurationError(
            f"task.rate_per_min / 60 x simulation.duration_s x mist (1 with "
            f"task.rate_is_global) must be at most {MAX_TASKS:,} expected tasks, "
            f"got {expected_tasks:.3g}"
        )
    if c.total < 1:
        raise ConfigurationError("constellation needs at least one satellite")
    if c.planes < 1:
        raise ConfigurationError("constellation planes must be >= 1")
    if any(config.profiles[layer].vms_per_satellite < 1 for layer in LAYER_ORDER):
        raise ConfigurationError("vms_per_satellite must be >= 1")
    if not config.architecture:
        raise ConfigurationError("architecture.layers needs at least one layer")


def load_config_file(path) -> SimulationConfig:
    with open(path, "rb") as handle:
        return parse_config(handle)
