"""Run configuration: defaults, validation, and the flat key=value format.

Config files are UTF-8 text (a leading byte-order mark is accepted), one
`section.key=value` per line, with `#` starting a full-line comment and
blank lines ignored. Unknown keys are rejected, as are malformed lines and
bad values; errors carry the line number or offending key.

Each key has one `_KEYS` row: its value parser, the path of the
SimulationConfig field it sets, and the bound `validate` holds it to.
`validate` also bounds the run's expected tasks, VMs and orbital planes.
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
from .orchestrate import DEFAULT_TRADEOFF_LAYER_WEIGHTS, PolicyId

ALL_LAYERS: frozenset[Layer] = frozenset(LAYER_ORDER)

_POLICY_ALIASES = {
    "wg": PolicyId.WEIGHT_GREEDY,
}

# Upper bound on the expected tasks one run generates up front.
MAX_TASKS = 2_000_000
# Upper bound on the VMs (one per satellite) and orbital planes one run builds up front.
MAX_VMS = 100_000


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
    constellation: ConstellationSpec = field(default_factory=ConstellationSpec)
    profiles: Mapping[Layer, LayerProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )
    link: LinkParams = field(default_factory=LinkParams)
    radio: RadioParams = field(default_factory=RadioParams)
    task: TaskProfile = field(default_factory=TaskProfile)
    policy: PolicyId = PolicyId.DISTANCE_ONLY
    architecture: frozenset[Layer] = ALL_LAYERS
    tradeoff_cloud_weight: float = DEFAULT_TRADEOFF_LAYER_WEIGHTS[Layer.CLOUD]
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


# Bounds a _KEYS row can carry: (test a valid value passes, what it must be).
_POSITIVE = (lambda value: value > 0, "must be positive")
_NON_NEGATIVE = (lambda value: value >= 0, "must be non-negative")
_ALTITUDE = (lambda value: value >= MIN_ALTITUDE_M, f"must be >= {MIN_ALTITUDE_M:.0f} m")

# key -> (value parser, field path into SimulationConfig, bound or None).
# A path step is a dataclass field name, or a Layer keying a per-layer mapping.
_KEYS = {
    "simulation.duration_s": (_parse_float, ("duration_s",), _POSITIVE),
    "constellation.mist": (_parse_int, ("constellation", "mist"), None),
    "constellation.edge_dc": (_parse_int, ("constellation", "edge_dc"), None),
    "constellation.cloud": (_parse_int, ("constellation", "cloud"), None),
    "constellation.phasing": (_parse_phasing, ("constellation", "phasing"), None),
    "orbit.mist_altitude_m": (
        _parse_float, ("constellation", "altitude_by_layer", Layer.MIST), _ALTITUDE
    ),
    "orbit.edge_altitude_m": (
        _parse_float, ("constellation", "altitude_by_layer", Layer.EDGE_DC), _ALTITUDE
    ),
    "orbit.cloud_altitude_m": (
        _parse_float, ("constellation", "altitude_by_layer", Layer.CLOUD), _ALTITUDE
    ),
    "link.bandwidth_bps": (_parse_float, ("link", "bandwidth_bps"), _POSITIVE),
    "link.speed_mps": (_parse_float, ("link", "propagation_speed_mps"), _POSITIVE),
    "link.range_mist_m": (_parse_float, ("link", "range_by_layer", Layer.MIST), _POSITIVE),
    "link.range_edge_m": (_parse_float, ("link", "range_by_layer", Layer.EDGE_DC), _POSITIVE),
    "link.range_cloud_m": (_parse_float, ("link", "range_by_layer", Layer.CLOUD), _POSITIVE),
    "radio.e_elec": (_parse_float, ("radio", "e_elec"), _POSITIVE),
    "radio.eps_fs": (_parse_float, ("radio", "eps_fs"), _POSITIVE),
    "radio.eps_mp": (_parse_float, ("radio", "eps_mp"), _POSITIVE),
    "task.rate_per_min": (_parse_float, ("task", "rate_per_min"), _NON_NEGATIVE),
    "task.rate_is_global": (_parse_bool, ("task", "rate_is_global"), None),
    "task.length_mi": (_parse_float, ("task", "length_mi"), _POSITIVE),
    "task.input_bits": (_parse_float, ("task", "input_bits"), _NON_NEGATIVE),
    "task.output_bits": (_parse_float, ("task", "output_bits"), _NON_NEGATIVE),
    "task.max_latency_s": (_parse_float, ("task", "max_latency_s"), _POSITIVE),
    "vm.mist_mips": (_parse_float, ("profiles", Layer.MIST, "mips"), _POSITIVE),
    "vm.edge_mips": (_parse_float, ("profiles", Layer.EDGE_DC, "mips"), _POSITIVE),
    "vm.cloud_mips": (_parse_float, ("profiles", Layer.CLOUD, "mips"), _POSITIVE),
    "policy.name": (parse_policy_name, ("policy",), None),
    "policy.tradeoff_cloud_weight": (_parse_float, ("tradeoff_cloud_weight",), _POSITIVE),
    "architecture.layers": (_parse_layers, ("architecture",), None),
    "rng.seed": (_parse_int, ("seed",), None),
}


def _field(config: SimulationConfig, path: tuple):
    """The value at a _KEYS field path."""
    value = config
    for step in path:
        value = value[step] if isinstance(step, Layer) else getattr(value, step)
    return value


def _with_field(obj, path: tuple, value):
    """A copy of obj with the field at path set; obj and its mappings are untouched."""
    step, rest = path[0], path[1:]
    if rest:
        value = _with_field(_field(obj, (step,)), rest, value)
    if isinstance(step, Layer):
        return {**obj, step: value}
    return replace(obj, **{step: value})


def _as_text(source) -> str:
    data = source if isinstance(source, (str, bytes)) else source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}") from None
    return data.removeprefix("\ufeff")


def parse_config(source: str | bytes | IO | None = None) -> SimulationConfig:
    """Parse a config stream; an empty or missing stream yields defaults."""
    text = _as_text(source) if source is not None else ""
    config = SimulationConfig()
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        parser, path, _ = _KEYS[key]
        try:
            config = _with_field(config, path, parser(value.strip()))
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {lineno}: {key}: {exc}") from None
    config = _with_field(config, ("constellation", "rng_seed"), config.seed)
    validate(config)
    return config


def validate(config: SimulationConfig) -> None:
    """Reject semantically invalid configurations before any event runs.

    This is the only place config values are checked: the parameter
    dataclasses, the node builder and the per-event functions trust them.
    """
    c, task = config.constellation, config.task
    per_layer = {
        "constellation.altitude_by_layer": c.altitude_by_layer,
        "link.range_by_layer": config.link.range_by_layer,
        "profiles": config.profiles,
    }
    for name, mapping in per_layer.items():
        missing = [layer.value for layer in LAYER_ORDER if layer not in mapping]
        if missing:
            raise ConfigurationError(f"{name} has no entry for {', '.join(missing)}")

    for key, (_, path, bound) in _KEYS.items():
        if bound is None:
            continue
        value = _field(config, path)
        if not math.isfinite(value):
            raise ConfigurationError(f"{key} must be finite, not NaN or infinite, got {value}")
        holds, requirement = bound
        if not holds(value):
            raise ConfigurationError(f"{key} {requirement}, got {value}")

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
    if not config.architecture:
        raise ConfigurationError("architecture.layers needs at least one layer")
    if c.total > MAX_VMS:
        raise ConfigurationError(
            f"satellite counts, one VM each, must be at most {MAX_VMS:,} VMs, got {c.total:,}"
        )
    if c.planes > MAX_VMS:
        raise ConfigurationError(
            f"constellation planes must be at most {MAX_VMS:,}, got {c.planes:,}"
        )


def load_config_file(path) -> SimulationConfig:
    with open(path, "rb") as handle:
        return parse_config(handle)
