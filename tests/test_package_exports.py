"""Package exports: every public name is the object its submodule defines.

``repro.experiments`` and ``repro.service`` load some submodules only on
first access (a PEP 562 module ``__getattr__``), so that ``import repro.cli``
stays light.  These tests pin that the lazy names still behave like eager
ones: same objects, star imports, and ``AttributeError`` for unknown names.
"""

from __future__ import annotations

import importlib

import pytest

# package -> defining submodule -> the names it contributes to __all__.
DEFINING_MODULES = {
    "repro.experiments": {
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
        "results": ("ResultTable",),
        "io": ("read_csv", "write_csv"),
    },
    "repro.service": {
        "client": ("JobFailed", "ServiceClient", "ServiceError"),
        "daemon": (
            "DaemonHandle",
            "SimulationDaemon",
            "SimulationService",
            "start_daemon",
        ),
        "jobs": ("Job", "JobQueue", "QueueFull"),
        "requests": (
            "RequestError",
            "RequestResult",
            "SimulationRequest",
            "execute_request",
            "network_request",
            "prepare_request",
            "protocol_request",
            "request_from_dict",
            "sweep_request",
        ),
    },
}

PACKAGES = sorted(DEFINING_MODULES)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_the_object_its_submodule_defines(package):
    module = importlib.import_module(package)
    sources = {
        name: f"{package}.{submodule}"
        for submodule, names in DEFINING_MODULES[package].items()
        for name in names
    }
    assert sorted(sources) == sorted(module.__all__)
    mismatched = [
        name
        for name, source in sources.items()
        if getattr(module, name) is not getattr(importlib.import_module(source), name)
    ]
    assert mismatched == []


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_export(package):
    module = importlib.import_module(package)
    namespace = {}
    exec(f"from {package} import *", namespace)
    missing = [
        name
        for name in module.__all__
        if name not in namespace or namespace[name] is not getattr(module, name)
    ]
    assert missing == []


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"{package}.*no_such_export"):
        module.no_such_export
    assert not hasattr(module, "no_such_export")
