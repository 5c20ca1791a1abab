"""Package exports: every public name is the object its submodule defines.

The packages below load their submodules only on first access (a PEP 562
module ``__getattr__``), so that ``import repro.cli`` stays light.  These
tests pin that the lazy names still behave like eager ones: same objects,
star imports, ``dir()``, and ``AttributeError`` for unknown names.
"""

from __future__ import annotations

import importlib

import pytest

# package -> defining submodule -> the names it contributes to __all__
# ("" for a name the package defines itself).
DEFINING_MODULES = {
    "repro": {
        "": ("__version__",),
        "core": (
            "AdoptionRule",
            "AgentBasedDynamics",
            "AgentType",
            "AlwaysAdoptRule",
            "BatchedDynamics",
            "BatchedPopulationState",
            "BatchedTrajectory",
            "CoupledRun",
            "EpochSchedule",
            "FinitePopulationDynamics",
            "GeneralAdoptionRule",
            "HeterogeneousPopulationDynamics",
            "InfinitePopulationDynamics",
            "MixtureSampling",
            "PopularityOnlySampling",
            "PopulationState",
            "RegretAccumulator",
            "RowwiseAdoptionRule",
            "SamplingRule",
            "SymmetricAdoptionRule",
            "TheoryBounds",
            "Trajectory",
            "UniformSampling",
            "best_option_share",
            "empirical_regret",
            "optimal_beta",
            "run_coupled_dynamics",
            "simulate_batched_population",
            "simulate_finite_population",
            "simulate_infinite_population",
        ),
        "core.regret": ("expected_regret", "expected_step_rewards", "step_rewards"),
        "environments": (
            "BernoulliEnvironment",
            "EllisonFudenbergEnvironment",
            "PiecewiseConstantDriftEnvironment",
            "RandomWalkDriftEnvironment",
            "RecordedRewardSequence",
            "RewardEnvironment",
            "record_rewards",
        ),
        "agents": ("Agent", "Population"),
    },
    "repro.analysis": {
        "concentration": ("multiplicative_deviation",),
        "convergence": ("dominance_time",),
        "proof_trace": ("ProofTrace", "trace_theorem_43"),
        "statistics": (
            "ReplicationSummary",
            "normal_confidence_interval",
            "summarize_replications",
        ),
    },
    "repro.core": {
        "adoption": (
            "AdoptionRule",
            "AlwaysAdoptRule",
            "GeneralAdoptionRule",
            "RowwiseAdoptionRule",
            "SymmetricAdoptionRule",
        ),
        "batched": (
            "BatchedDynamics",
            "BatchedPopulationState",
            "BatchedTrajectory",
            "simulate_batched_population",
        ),
        "coupling": ("CoupledRun", "run_coupled_dynamics"),
        "dynamics": (
            "AgentBasedDynamics",
            "FinitePopulationDynamics",
            "simulate_finite_population",
        ),
        "epochs": ("EpochSchedule",),
        "heterogeneous": ("AgentType", "HeterogeneousPopulationDynamics"),
        "infinite": ("InfinitePopulationDynamics", "simulate_infinite_population"),
        "regret": ("RegretAccumulator", "best_option_share", "empirical_regret"),
        "sampling": (
            "MixtureSampling",
            "PopularityOnlySampling",
            "SamplingRule",
            "UniformSampling",
        ),
        "state": ("PopulationState", "Trajectory"),
        "theory": ("TheoryBounds", "optimal_beta"),
    },
    "repro.environments": {
        "base": ("RewardEnvironment",),
        "bernoulli": ("BernoulliEnvironment", "RowwiseBernoulliEnvironment"),
        "continuous": ("EllisonFudenbergEnvironment",),
        "drift": ("PiecewiseConstantDriftEnvironment", "RandomWalkDriftEnvironment"),
        "replay": ("RecordedRewardSequence", "record_rewards"),
    },
    "repro.obs": {
        "metrics": (
            "Counter",
            "DEFAULT_LATENCY_BUCKETS",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "format_sample",
            "freeze_labels",
            "get_registry",
        ),
        "summary": (
            "PhaseSummary",
            "load_records",
            "render_summary",
            "summarize_records",
            "summarize_trace_file",
        ),
        "trace": (
            "EVENT",
            "JsonlSink",
            "MemorySink",
            "NULL_TRACER",
            "NullTracer",
            "SPAN_END",
            "SPAN_START",
            "Span",
            "SpanContext",
            "TRACE_OUT_ENV",
            "TeeSink",
            "Tracer",
            "current_context",
            "current_span",
            "resolve_tracer",
            "span_id_for",
            "trace_id_for_key",
            "validate_record",
        ),
    },
    "repro.runtime": {
        "backend": ("Backend", "check_resolvable"),
        "driver": ("run_plan",),
        "executors": ("ParallelExecutor", "SerialExecutor", "resolve_replication"),
        "options": ("ExecutionOptions",),
        "shard": (
            "ShardPlan",
            "Task",
            "execute_shard",
            "execute_task",
            "function_reference",
            "partition_tasks",
            "replication_mode",
        ),
        "store": (
            "ResultStore",
            "StoreCounters",
            "StoreError",
            "canonical_json",
            "canonical_value",
            "task_key",
            "task_keys",
        ),
    },
    "repro.utils": {
        "ascii_plot": ("ascii_line_plot", "format_table"),
        "logging": ("get_logger",),
        "rng": ("RngLike", "ensure_rng", "spawn_rngs"),
        "validation": (
            "check_in_range",
            "check_positive_int",
            "check_probability",
            "check_probability_vector",
        ),
    },
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
        name: f"{package}.{submodule}".rstrip(".")
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
def test_dir_lists_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"{package}.*no_such_export"):
        module.no_such_export
    assert not hasattr(module, "no_such_export")
