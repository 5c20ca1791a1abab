"""Experiment harness: configs, replicated runs, parameter sweeps and result tables.

Benchmarks and examples are written against this small harness rather than
ad-hoc loops so that every experiment (E1–E14 under ``benchmarks/``) shares the same
seeding discipline, replication statistics, and output formats (text tables
via :func:`repro.utils.format_table` and CSV files via
:func:`repro.experiments.io.write_csv`).

Every export loads its module on first access (PEP 562), so a dynamics
sweep never imports the network and protocol sweeps (networkx, the
protocol engines).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "config": ("ExperimentConfig",),
        "runner": (
            "ReplicatedResult",
            "batched_replication",
            "grid_batched_replication",
            "run_replications",
        ),
        "sweep": ("ParameterGrid", "run_sweep", "sweep_configs"),
        "dynamics_sweep": (
            "FlatGrid",
            "dynamics_grid_replication",
            "dynamics_point_replication",
            "flatten_grid",
        ),
        "engine_options": ("NETWORK_ENGINES", "PROTOCOL_ENGINES"),
        "results": ("ResultTable",),
        "io": ("read_csv", "write_csv"),
        "network_sweep": (
            "NETWORK_REPLICATIONS",
            "build_network",
            "network_batched_replication",
            "network_point_replication",
        ),
        "protocol_sweep": (
            "PROTOCOL_REPLICATIONS",
            "protocol_batched_replication",
            "protocol_point_replication",
        ),
    },
)
