"""Ready-set campaign scheduling over pluggable execution backends.

:class:`CampaignScheduler` walks a validated
:class:`~repro.campaign.graph.Campaign` and runs each node the moment its
dependencies have merged — ready-*set* dispatch, not phase barriers, so an
``analyse`` node over one finished sweep runs while an unrelated ``simulate``
node is still queued.  Nodes of different kinds execute very differently:

* ``simulate`` nodes expand into the request's
  :class:`~repro.runtime.shard.ShardPlan` tasks and run them through
  :func:`~repro.service.requests.execute_request` on the scheduler's
  :class:`~repro.runtime.backend.Backend` — in-process
  :class:`~repro.runtime.executors.SerialExecutor`, the multi-process
  :class:`~repro.runtime.executors.ParallelExecutor`, or the socket
  :class:`~repro.campaign.broker.BrokerBackend` — with every merge passing
  through the scheduler's content-addressed
  :class:`~repro.runtime.store.ResultStore`.  Seed derivation is untouched
  (the plan derives seeds from the request alone), so the metric rows are
  bit-identical on every backend, and a warm store short-circuits the whole
  node without dispatching a single task — which is what makes a killed
  campaign resumable: re-run it against the same store and only the missing
  shards compute.
* ``analyse`` nodes run in the scheduler process: they pool the upstream
  simulate rows and summarise each metric column
  (:func:`~repro.analysis.statistics.summarize_replications`).
* ``report`` nodes collate upstream rows into one node-tagged table plus a
  rendered text report.

Simulate nodes run on the scheduler's backend (a :class:`SerialExecutor`
when none is given) through the same :func:`~repro.runtime.run_plan` path
as every other run, so backend choice can never change a campaign's
numbers — the cross-backend bit-identity contract of ``repro campaign
--backend``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.statistics import summarize_replications
from repro.campaign.graph import (
    ANALYSE,
    REPORT,
    SIMULATE,
    Campaign,
    CampaignError,
    CampaignNode,
)
from repro.obs.trace import resolve_tracer
from repro.runtime.executors import SerialExecutor
from repro.runtime.options import ExecutionOptions
from repro.service.requests import execute_request

#: Dispatch order among simultaneously-ready nodes.  Cheap in-process
#: aggregation (analyse/report) drains before the next expensive simulate
#: node starts, so partial results surface as early as possible.  Ties break
#: on topological index, keeping execution order deterministic.
KIND_PRIORITY: Dict[str, int] = {ANALYSE: 0, REPORT: 1, SIMULATE: 2}


@dataclass(frozen=True)
class NodeResult:
    """The merged output of one executed campaign node.

    ``rows`` is the node's result table (plain dicts — the JSON the daemon
    returns); ``text`` is the rendered report for ``report`` nodes.
    """

    node_id: str
    kind: str
    rows: Tuple[Dict[str, Any], ...]
    description: str
    text: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.node_id,
            "kind": self.kind,
            "description": self.description,
            "rows": [dict(row) for row in self.rows],
        }
        if self.text is not None:
            payload["text"] = self.text
        return payload


@dataclass
class CampaignResult:
    """All node results of one campaign run, in execution order."""

    campaign: Campaign
    node_results: Dict[str, NodeResult] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)

    def __getitem__(self, node_id: str) -> NodeResult:
        return self.node_results[node_id]

    def reports(self) -> List[NodeResult]:
        """The report-node results, in execution order."""
        return [
            self.node_results[node_id]
            for node_id in self.order
            if self.node_results[node_id].kind == REPORT
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (the ``/v1/campaigns`` job result payload)."""
        return {
            "campaign": self.campaign.name,
            "key": self.campaign.key(),
            "order": list(self.order),
            "nodes": [
                self.node_results[node_id].to_dict() for node_id in self.order
            ],
        }


def _numeric_columns(rows: List[Dict[str, Any]]) -> List[str]:
    """Column names holding a number in *every* row, in first-row order."""
    if not rows:
        return []
    names = [
        name
        for name, value in rows[0].items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    for row in rows[1:]:
        names = [
            name
            for name in names
            if isinstance(row.get(name), (int, float))
            and not isinstance(row.get(name), bool)
        ]
    return names


class CampaignScheduler:
    """Execute a campaign graph on one backend, merging through one store.

    Parameters
    ----------
    backend:
        Any :class:`~repro.runtime.backend.Backend` — ``SerialExecutor``
        (default), ``ParallelExecutor`` or
        :class:`~repro.campaign.broker.BrokerBackend`.  Only simulate nodes
        touch it; analyse/report always run in this process.
    store:
        Optional :class:`~repro.runtime.store.ResultStore`.  With a store,
        completed shards are flushed as they finish and warm entries
        short-circuit recomputation — kill the campaign, re-run it against
        the same store, and it completes from cache.
    on_node:
        Optional ``callback(node, result)`` invoked after each node merges
        (progress reporting).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` (defaults to the process
        tracer, a no-op unless installed).  With tracing on, each run opens
        one ``campaign`` root span keyed by the campaign's content address
        and one ``campaign_node`` span per node — carrying its kind and
        input edges, with shard spans nesting under the simulate nodes —
        so a trace reconstructs the full DAG with per-node latency.
    """

    def __init__(
        self,
        backend: Any = None,
        *,
        store: Any = None,
        on_node: Optional[Callable[[CampaignNode, NodeResult], None]] = None,
        tracer: Any = None,
    ) -> None:
        self._backend = backend if backend is not None else SerialExecutor()
        self._store = store
        self._on_node = on_node
        self._tracer = tracer  # resolved per run, so set_tracer() applies

    def run(self, campaign: Campaign) -> CampaignResult:
        """Run every node of ``campaign``; returns the merged results.

        Dispatch is ready-set: a node enters the ready heap the moment its
        last dependency merges, ordered by :data:`KIND_PRIORITY` then
        topological index — deterministic, and never blocked on an
        unrelated "phase".
        """
        tracer = resolve_tracer(self._tracer)
        traced = bool(getattr(tracer, "enabled", False))
        campaign_key = campaign.key() if traced else ""
        topo_index = {node.id: index for index, node in enumerate(campaign.nodes)}
        waiting = {node.id: len(node.inputs) for node in campaign.nodes}
        dependents = campaign.dependents()
        ready: List[Tuple[int, int, str]] = []
        for node in campaign.nodes:
            if waiting[node.id] == 0:
                heapq.heappush(
                    ready, (KIND_PRIORITY[node.kind], topo_index[node.id], node.id)
                )
        result = CampaignResult(campaign=campaign)
        with tracer.span(
            "campaign",
            campaign_key,
            attributes={"name": campaign.name, "nodes": len(campaign.nodes)},
        ):
            while ready:
                _, _, node_id = heapq.heappop(ready)
                node = campaign.node(node_id)
                # The node span key extends the campaign's content address,
                # so node span ids are deterministic across runs/backends
                # and the recorded `inputs` edges reconstruct the DAG.
                with tracer.span(
                    "campaign_node",
                    f"{campaign_key}/{node_id}",
                    attributes={
                        "node": node_id,
                        "kind": node.kind,
                        "inputs": list(node.inputs),
                    },
                ) as node_span:
                    node_result = self._run_node(
                        node, result, tracer if traced else None
                    )
                    if traced:
                        node_span.set_attribute("rows", len(node_result.rows))
                result.node_results[node_id] = node_result
                result.order.append(node_id)
                if self._on_node is not None:
                    self._on_node(node, node_result)
                for downstream in dependents[node_id]:
                    waiting[downstream] -= 1
                    if waiting[downstream] == 0:
                        kind = campaign.node(downstream).kind
                        heapq.heappush(
                            ready,
                            (KIND_PRIORITY[kind], topo_index[downstream], downstream),
                        )
        return result

    def _run_node(
        self, node: CampaignNode, result: CampaignResult, tracer: Any = None
    ) -> NodeResult:
        if node.kind == SIMULATE:
            return self._run_simulate(node, tracer)
        upstream = [result.node_results[input_id] for input_id in node.inputs]
        if node.kind == ANALYSE:
            return self._run_analyse(node, upstream)
        return self._run_report(node, upstream)

    def _run_simulate(self, node: CampaignNode, tracer: Any = None) -> NodeResult:
        assert node.request is not None
        # The node runs on the campaign's backend; every backend shares the
        # one run_plan path, so in-process, pool and broker runs of the
        # same node are bit-identical.
        options = ExecutionOptions(
            executor=self._backend, store=self._store, tracer=tracer
        )
        request_result = execute_request(node.request, options=options)
        return NodeResult(
            node_id=node.id,
            kind=SIMULATE,
            rows=tuple(request_result.rows),
            description=request_result.description,
        )

    def _run_analyse(
        self, node: CampaignNode, upstream: List[NodeResult]
    ) -> NodeResult:
        pooled: List[Dict[str, Any]] = [
            dict(row) for dep in upstream for row in dep.rows
        ]
        if node.metrics is not None:
            metrics = list(node.metrics)
            for metric in metrics:
                missing = [
                    dep.node_id
                    for dep in upstream
                    if any(metric not in row for row in dep.rows)
                ]
                if missing:
                    raise CampaignError(
                        f"analyse node {node.id!r} asks for metric {metric!r} "
                        f"which is missing from rows of {missing}"
                    )
        else:
            metrics = _numeric_columns(pooled)
            if not metrics:
                raise CampaignError(
                    f"analyse node {node.id!r} found no shared numeric "
                    f"columns in its {len(pooled)} upstream rows"
                )
        rows: List[Dict[str, Any]] = []
        for metric in metrics:
            summary = summarize_replications([float(row[metric]) for row in pooled])
            row: Dict[str, Any] = {"metric": metric}
            row.update(summary.as_dict())
            rows.append(row)
        description = (
            f"analyse over {len(upstream)} input node(s): "
            f"{len(metrics)} metric(s) x {len(pooled)} rows"
        )
        return NodeResult(
            node_id=node.id, kind=ANALYSE, rows=tuple(rows), description=description
        )

    def _run_report(
        self, node: CampaignNode, upstream: List[NodeResult]
    ) -> NodeResult:
        rows: List[Dict[str, Any]] = []
        for dep in upstream:
            for row in dep.rows:
                tagged = {"node": dep.node_id}
                tagged.update(row)
                rows.append(tagged)
        title = node.title or f"Report {node.id}"
        lines = [title, "=" * len(title)]
        for dep in upstream:
            lines.append("")
            lines.append(f"[{dep.kind}] {dep.node_id}: {dep.description}")
            for row in dep.rows:
                cells = ", ".join(f"{key}={value}" for key, value in row.items())
                lines.append(f"  {cells}")
        description = f"report over {len(upstream)} input node(s): {len(rows)} rows"
        return NodeResult(
            node_id=node.id,
            kind=REPORT,
            rows=tuple(rows),
            description=description,
            text="\n".join(lines),
        )


def run_campaign(
    campaign: Campaign,
    *,
    backend: Any = None,
    store: Any = None,
    on_node: Optional[Callable[[CampaignNode, NodeResult], None]] = None,
    tracer: Any = None,
) -> CampaignResult:
    """Convenience wrapper: schedule ``campaign`` on ``backend`` with ``store``."""
    scheduler = CampaignScheduler(backend, store=store, on_node=on_node, tracer=tracer)
    return scheduler.run(campaign)
