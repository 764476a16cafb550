"""Deterministic simulator of task placement on mist/edge/cloud satellite tiers."""

from .config import parse_config
from .engine import EventKind, Simulation, TaskState
from .errors import ConfigurationError
from .layers import Layer
from .metrics import emit_csv
from .netenergy import RadioParams, energy_db, rx_energy, tx_energy
from .orbital import ConstellationSpec, OrbitPositions, build_constellation, orbital_period_s
from .orchestrate import PolicyId
from .sweep import SweepSpec, plot_data, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ConstellationSpec",
    "EventKind",
    "Layer",
    "OrbitPositions",
    "PolicyId",
    "RadioParams",
    "Simulation",
    "SweepSpec",
    "TaskState",
    "build_constellation",
    "emit_csv",
    "energy_db",
    "orbital_period_s",
    "parse_config",
    "plot_data",
    "run_sweep",
    "rx_energy",
    "tx_energy",
]
