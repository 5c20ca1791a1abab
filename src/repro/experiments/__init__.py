"""Experiment harness: configs, replicated runs, parameter sweeps and result tables.

Benchmarks and examples are written against this small harness rather than
ad-hoc loops so that every experiment (E1–E14 under ``benchmarks/``) shares the same
seeding discipline, replication statistics, and output formats (text tables
via :func:`repro.utils.format_table` and CSV files via
:func:`repro.experiments.io.write_csv`).

The network and protocol sweeps (networkx, the protocol engines) load on
first access (PEP 562), so a dynamics sweep never imports them.
"""

import importlib

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ReplicatedResult,
    batched_replication,
    grid_batched_replication,
    run_replications,
)
from repro.experiments.sweep import ParameterGrid, run_sweep, sweep_configs
from repro.experiments.dynamics_sweep import (
    FlatGrid,
    dynamics_grid_replication,
    dynamics_point_replication,
    flatten_grid,
)
from repro.experiments.engine_options import NETWORK_ENGINES, PROTOCOL_ENGINES
from repro.experiments.results import ResultTable
from repro.experiments.io import read_csv, write_csv

_LAZY_MODULES = {
    "NETWORK_REPLICATIONS": "network_sweep",
    "build_network": "network_sweep",
    "network_batched_replication": "network_sweep",
    "network_point_replication": "network_sweep",
    "PROTOCOL_REPLICATIONS": "protocol_sweep",
    "protocol_batched_replication": "protocol_sweep",
    "protocol_point_replication": "protocol_sweep",
}


def __getattr__(name):
    module = _LAZY_MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "ExperimentConfig",
    "ReplicatedResult",
    "batched_replication",
    "grid_batched_replication",
    "run_replications",
    "ParameterGrid",
    "run_sweep",
    "sweep_configs",
    "FlatGrid",
    "dynamics_grid_replication",
    "dynamics_point_replication",
    "flatten_grid",
    "NETWORK_ENGINES",
    "PROTOCOL_ENGINES",
    "ResultTable",
    "read_csv",
    "write_csv",
    *_LAZY_MODULES,
]
