"""The shared request layer: one config-derivation path for CLI and daemon.

A :class:`SimulationRequest` is a validated, canonically-normalised
description of one runnable workload — exactly the configuration a
``repro sweep``/``network``/``protocol`` CLI invocation derives from its
flags, as plain JSON-able data.  Both front ends build requests through the
same constructors (:func:`sweep_request`, :func:`network_request`,
:func:`protocol_request`, or :func:`request_from_dict` for an HTTP payload)
and both execute them through :func:`execute_request`, so a job submitted
over HTTP and the equivalent CLI command run the *same* grid, configs,
seeds and engine — and therefore produce bit-identical metric rows.

Every request has a content address (:meth:`SimulationRequest.key` — the
SHA-256 of its canonical JSON) which the daemon uses to deduplicate
identical submissions in flight; the underlying per-task
:class:`~repro.runtime.store.ResultStore` keys are finer-grained, so two
*different* requests that share grid points still share cache entries.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.backends import PRECISIONS
from repro.experiments import (
    NETWORK_ENGINES,
    PROTOCOL_ENGINES,
    ExperimentConfig,
    ParameterGrid,
    ResultTable,
    dynamics_grid_replication,
    dynamics_point_replication,
    run_replications,
    run_sweep,
)
from repro.runtime.options import ExecutionOptions
from repro.runtime.store import canonical_json

SWEEP = "sweep"
NETWORK = "network"
PROTOCOL = "protocol"

REQUEST_KINDS = (SWEEP, NETWORK, PROTOCOL)
"""The workload kinds a request can describe (= the runtime-capable CLI commands)."""

SWEEP_ENGINES = ("batched", "loop")


class RequestError(ValueError):
    """A request is malformed or names an impossible configuration."""


@dataclass(frozen=True)
class SimulationRequest:
    """A validated, canonical description of one runnable workload.

    ``spec`` is plain JSON-able data (the payload ``request_from_dict``
    accepts), already normalised through the canonicaliser, so equal
    workloads compare equal and share one :meth:`key`.
    """

    kind: str
    spec: Mapping[str, Any]

    def key(self) -> str:
        """Content address: SHA-256 of the canonical JSON encoding."""
        payload = canonical_json({"kind": self.kind, "spec": dict(self.spec)})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def engine(self) -> str:
        return str(self.spec["engine"])

    def to_dict(self) -> Dict[str, Any]:
        """The JSON payload that round-trips through :func:`request_from_dict`."""
        payload = dict(self.spec)
        payload["kind"] = self.kind
        return payload


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _finite_float(name: str, value: Any) -> float:
    """A finite float, or :class:`RequestError`.

    Non-finite parameters are rejected at the request boundary: the content
    address is canonical (RFC 8259) JSON, which has no ``NaN``/``Infinity``
    tokens — and ``json.loads`` would happily accept them from a payload
    (``{"beta": Infinity}``), turning a client typo into an HTTP 500 deep in
    key derivation instead of a 400 here.
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise RequestError(f"'{name}' must be a number, got {value!r}")
    _require(math.isfinite(value), f"'{name}' must be finite, got {value!r}")
    return value


def _float_list(name: str, values: Any) -> List[float]:
    _require(
        isinstance(values, (list, tuple)) and len(values) > 0,
        f"'{name}' must be a non-empty sequence of numbers",
    )
    try:
        values = [float(value) for value in values]
    except (TypeError, ValueError):
        raise RequestError(f"'{name}' must contain only numbers, got {values!r}")
    _require(
        all(math.isfinite(value) for value in values),
        f"'{name}' must contain only finite numbers, got {values!r}",
    )
    return values


def _int_list(name: str, values: Any) -> List[int]:
    _require(
        isinstance(values, (list, tuple)) and len(values) > 0,
        f"'{name}' must be a non-empty sequence of integers",
    )
    try:
        return [int(value) for value in values]
    except (TypeError, ValueError):
        raise RequestError(f"'{name}' must contain only integers, got {values!r}")


def _positive_int(name: str, value: Any) -> int:
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise RequestError(f"'{name}' must be an integer, got {value!r}")
    _require(value > 0, f"'{name}' must be positive, got {value}")
    return value


def _non_negative_int(name: str, value: Any) -> int:
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise RequestError(f"'{name}' must be an integer, got {value!r}")
    _require(value >= 0, f"'{name}' must be non-negative, got {value}")
    return value


def _engine(value: str, allowed: Tuple[str, ...]) -> str:
    _require(
        value in allowed,
        f"unknown engine {value!r}; expected one of {', '.join(allowed)}",
    )
    return value


def _dtype_fields(engine: str, dtype: Any) -> Dict[str, Any]:
    """Validate and canonicalise a request's ``dtype``.

    The default (``None`` or ``"float64"``) normalises to an *absent* field,
    so requests predating the knob keep their content addresses; a
    non-default precision becomes a spec field — and therefore part of the
    request key and of every per-point parameter dict the
    :class:`~repro.runtime.store.ResultStore` keys on — so a float32 run can
    never hit a float64 cache entry.  It needs the batched engine (the loop
    engines always run float64).
    """
    if dtype is None or str(dtype) == "float64":
        return {}
    dtype = str(dtype)
    _require(
        dtype in PRECISIONS,
        f"unknown dtype {dtype!r}; expected one of {', '.join(PRECISIONS)}",
    )
    _require(
        engine == "batched",
        "dtype overrides need the batched engine (the loop engines always "
        f"run float64); got engine={engine!r}",
    )
    return {"dtype": dtype}


def sweep_request(
    *,
    options: Any,
    populations: Any,
    horizon: int = 300,
    beta: float = 0.6,
    betas: Any = None,
    mus: Any = None,
    replications: int = 3,
    seed: int = 0,
    engine: str = "batched",
    dtype: Any = None,
) -> SimulationRequest:
    """A ``repro sweep`` workload: the dynamics over a ``N x beta x mu`` grid."""
    engine = _engine(engine, SWEEP_ENGINES)
    spec: Dict[str, Any] = {
        "options": _float_list("options", options),
        "populations": _int_list("populations", populations),
        "horizon": _positive_int("horizon", horizon),
        "beta": _finite_float("beta", beta),
        "replications": _positive_int("replications", replications),
        "seed": _non_negative_int("seed", seed),
        "engine": engine,
    }
    if betas is not None:
        spec["betas"] = _float_list("betas", betas)
    if mus is not None:
        spec["mus"] = _float_list("mus", mus)
    spec.update(_dtype_fields(engine, dtype))
    return SimulationRequest(kind=SWEEP, spec=spec)


def network_request(
    *,
    options: Any,
    topology: str,
    size: int,
    horizon: int = 300,
    beta: float = 0.6,
    mu: Optional[float] = None,
    graph_seed: int = 0,
    replications: int = 20,
    seed: int = 0,
    engine: str = "batched",
    dtype: Any = None,
) -> SimulationRequest:
    """A ``repro network`` workload: the dynamics on a social topology."""
    engine = _engine(engine, NETWORK_ENGINES)
    spec: Dict[str, Any] = {
        "options": _float_list("options", options),
        "topology": str(topology),
        "size": _positive_int("size", size),
        "horizon": _positive_int("horizon", horizon),
        "beta": _finite_float("beta", beta),
        "graph_seed": _non_negative_int("graph_seed", graph_seed),
        "replications": _positive_int("replications", replications),
        "seed": _non_negative_int("seed", seed),
        "engine": engine,
    }
    if mu is not None:
        spec["mu"] = _finite_float("mu", mu)
    spec.update(_dtype_fields(engine, dtype))
    return SimulationRequest(kind=NETWORK, spec=spec)


def protocol_request(
    *,
    options: Any,
    nodes: int,
    rounds: int = 300,
    beta: float = 0.6,
    mu: Optional[float] = None,
    loss: float = 0.0,
    delay: float = 0.0,
    crash: float = 0.0,
    mass_crash_round: Optional[int] = None,
    mass_crash_fraction: float = 0.0,
    replications: int = 20,
    seed: int = 0,
    engine: str = "batched",
    dtype: Any = None,
) -> SimulationRequest:
    """A ``repro protocol`` workload: the distributed protocol under failures.

    Mirrors the CLI's derivations: ``mass_crash_round`` defaults to
    ``rounds // 2`` when a positive ``mass_crash_fraction`` is given, and
    ``delay > 0`` requires the loop engine (the only one that models
    per-message delay).
    """
    engine = _engine(engine, PROTOCOL_ENGINES)
    rounds = _positive_int("rounds", rounds)
    delay = _finite_float("delay", delay)
    if delay > 0 and engine != "loop":
        raise RequestError(
            "only the loop engine models per-message delay; "
            "use engine='loop' or drop the delay"
        )
    mass_crash_fraction = _finite_float("mass_crash_fraction", mass_crash_fraction)
    if mass_crash_round is None and mass_crash_fraction > 0:
        mass_crash_round = rounds // 2
    spec: Dict[str, Any] = {
        "options": _float_list("options", options),
        "nodes": _positive_int("nodes", nodes),
        "rounds": rounds,
        "beta": _finite_float("beta", beta),
        "loss": _finite_float("loss", loss),
        "delay": delay,
        "crash": _finite_float("crash", crash),
        "mass_crash_fraction": mass_crash_fraction,
        "replications": _positive_int("replications", replications),
        "seed": _non_negative_int("seed", seed),
        "engine": engine,
    }
    if mass_crash_round is not None:
        spec["mass_crash_round"] = _non_negative_int(
            "mass_crash_round", mass_crash_round
        )
    if mu is not None:
        spec["mu"] = _finite_float("mu", mu)
    spec.update(_dtype_fields(engine, dtype))
    return SimulationRequest(kind=PROTOCOL, spec=spec)


_BUILDERS: Dict[str, Callable[..., SimulationRequest]] = {
    SWEEP: sweep_request,
    NETWORK: network_request,
    PROTOCOL: protocol_request,
}

# A payload's fields are exactly its builder's keyword arguments.
_ALLOWED_FIELDS: Dict[str, Tuple[str, ...]] = {
    kind: tuple(inspect.signature(builder).parameters)
    for kind, builder in _BUILDERS.items()
}


def request_from_dict(payload: Mapping[str, Any]) -> SimulationRequest:
    """Build a validated request from a JSON payload (the daemon's input).

    The payload is ``{"kind": <sweep|network|protocol>, **fields}`` with the
    fields of the matching constructor.  Unknown fields are rejected — a
    silently-dropped typo (``"replciations": 100``) would otherwise run a
    different experiment than the one submitted.
    """
    _require(isinstance(payload, Mapping), "request payload must be a JSON object")
    fields = dict(payload)
    kind = fields.pop("kind", None)
    _require(
        kind in REQUEST_KINDS,
        f"unknown request kind {kind!r}; expected one of {', '.join(REQUEST_KINDS)}",
    )
    allowed = _ALLOWED_FIELDS[kind]
    unknown = sorted(name for name in fields if name not in allowed)
    _require(
        not unknown,
        f"unknown {kind} request fields {unknown}; allowed: {', '.join(allowed)}",
    )
    try:
        return _BUILDERS[kind](**fields)
    except TypeError as error:
        # Missing required fields surface as TypeError from the builder
        # signature; normalise to the validation error the daemon maps to 400.
        raise RequestError(f"invalid {kind} request: {error}") from None


@dataclass(frozen=True)
class PreparedRequest:
    """A request resolved to the harness objects that execute it.

    ``config`` is set for the single-config kinds (network/protocol);
    ``grid``/``base_parameters`` are set for sweeps.  Both front ends use
    this single derivation, which is what makes their rows bit-identical.
    """

    request: SimulationRequest
    replication: Callable
    replications: int
    seed: int
    grid: Optional[ParameterGrid] = None
    base_parameters: Optional[Dict[str, Any]] = None
    config: Optional[ExperimentConfig] = None

    @property
    def name(self) -> str:
        return f"{self.request.kind}-{self.request.engine}"


def prepare_request(request: SimulationRequest) -> PreparedRequest:
    """Resolve ``request`` into grid/config + replication function."""
    spec = request.spec
    if request.kind == SWEEP:
        axes: Dict[str, Any] = {"N": list(spec["populations"])}
        if spec.get("betas"):
            axes["beta"] = list(spec["betas"])
        if spec.get("mus"):
            axes["mu"] = list(spec["mus"])
        base_parameters: Dict[str, Any] = {
            "qualities": tuple(spec["options"]),
            "T": spec["horizon"],
        }
        if not spec.get("betas"):
            base_parameters["beta"] = spec["beta"]
        if "dtype" in spec:
            base_parameters["dtype"] = spec["dtype"]
        replication = (
            dynamics_grid_replication
            if request.engine == "batched"
            else dynamics_point_replication
        )
        return PreparedRequest(
            request=request,
            replication=replication,
            replications=spec["replications"],
            seed=spec["seed"],
            grid=ParameterGrid(axes),
            base_parameters=base_parameters,
        )
    # A kind's engines load only when that kind runs (networkx, the protocol
    # stack); pool workers get them from the forkserver's preload.
    if request.kind == NETWORK:
        from repro.experiments.network_sweep import NETWORK_REPLICATIONS

        parameters: Dict[str, Any] = {
            "qualities": tuple(spec["options"]),
            "topology": spec["topology"],
            "N": spec["size"],
            "T": spec["horizon"],
            "beta": spec["beta"],
            "graph_seed": spec["graph_seed"],
        }
        if "mu" in spec:
            parameters["mu"] = spec["mu"]
        if "dtype" in spec:
            parameters["dtype"] = spec["dtype"]
        config = ExperimentConfig(
            name=f"network-{request.engine}",
            parameters=parameters,
            replications=spec["replications"],
            seed=spec["seed"],
        )
        return PreparedRequest(
            request=request,
            replication=NETWORK_REPLICATIONS[request.engine],
            replications=spec["replications"],
            seed=spec["seed"],
            config=config,
        )
    if request.kind == PROTOCOL:
        from repro.experiments.protocol_sweep import PROTOCOL_REPLICATIONS

        parameters = {
            "qualities": tuple(spec["options"]),
            "N": spec["nodes"],
            "T": spec["rounds"],
            "beta": spec["beta"],
            "loss": spec["loss"],
            "delay": spec["delay"],
            "crash": spec["crash"],
            "mass_crash_fraction": spec["mass_crash_fraction"],
        }
        if "mass_crash_round" in spec:
            parameters["mass_crash_round"] = spec["mass_crash_round"]
        if "mu" in spec:
            parameters["mu"] = spec["mu"]
        if "dtype" in spec:
            parameters["dtype"] = spec["dtype"]
        config = ExperimentConfig(
            name=f"protocol-{request.engine}",
            parameters=parameters,
            replications=spec["replications"],
            seed=spec["seed"],
        )
        return PreparedRequest(
            request=request,
            replication=PROTOCOL_REPLICATIONS[request.engine],
            replications=spec["replications"],
            seed=spec["seed"],
            config=config,
        )
    raise RequestError(f"unknown request kind {request.kind!r}")


@dataclass
class RequestResult:
    """Everything a front end needs to present one executed request."""

    request: SimulationRequest
    table: ResultTable
    description: str

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The result rows — the bit-identical CLI/API contract."""
        return [dict(row) for row in self.table.rows]


def summary_table(result) -> ResultTable:
    """Metric-summary table of a ReplicatedResult (the run/network/protocol form)."""
    table = ResultTable()
    for name in result.metric_names():
        row: Dict[str, Any] = {"metric": name}
        row.update(result.summarize(name).as_dict())
        table.add_row(row)
    return table


def execute_request(
    request: SimulationRequest,
    *,
    options: Optional[ExecutionOptions] = None,
    prepared: Optional[PreparedRequest] = None,
) -> RequestResult:
    """Execute ``request`` and return its result table.

    ``options`` — an :class:`~repro.runtime.options.ExecutionOptions` —
    chooses the executor, store and tracer exactly as the CLI's
    ``--workers``/``--store``/``--trace-out`` flags do; none of them changes
    a row.  Pass a ``prepared`` request to reuse a prior
    :func:`prepare_request` derivation (e.g. when a front end already
    resolved it for display purposes).
    """
    prepared = prepared if prepared is not None else prepare_request(request)
    if prepared.grid is not None:
        _, table = run_sweep(
            prepared.name,
            prepared.grid,
            prepared.replication,
            replications=prepared.replications,
            seed=prepared.seed,
            base_parameters=prepared.base_parameters,
            options=options,
        )
        description = (
            f"sweep engine={request.engine}: {len(prepared.grid)} grid points "
            f"x {prepared.replications} replications"
        )
        return RequestResult(request=request, table=table, description=description)
    result = run_replications(
        prepared.config, prepared.replication, options=options
    )
    return RequestResult(
        request=request,
        table=summary_table(result),
        description=prepared.config.describe(),
    )
