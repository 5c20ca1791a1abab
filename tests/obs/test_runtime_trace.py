"""Tracing wired through the runtime, broker and campaign layers.

Covers the cross-layer observability contracts: shard span identities are
bit-identical on every backend (they derive from task content addresses,
never wall clocks), cache hits are attributed, broker requeues leave a
structured event, and a traced campaign records one span per DAG node plus
one per shard with correct parent links.
"""

from __future__ import annotations

import logging
import socket
import threading

import pytest

from repro.campaign import (
    BrokerBackend,
    campaign_from_spec,
    parse_address,
    run_broker,
    run_campaign,
)
from repro.campaign.broker import recv_frame, send_frame
from repro.experiments import ParameterGrid, sweep_configs
from repro.experiments.dynamics_sweep import dynamics_point_replication
from repro.obs import MemorySink, Tracer, get_registry, validate_record
from repro.runtime import (
    ExecutionOptions,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
)
from repro.runtime.driver import run_plan
from repro.runtime.executors import SHARDS_PER_WORKER
from repro.runtime.shard import ShardPlan, Task
from repro.service.requests import execute_request, sweep_request

REPLICATION_REF = "repro.experiments.dynamics_sweep:dynamics_point_replication"


@pytest.fixture
def tracing():
    """A MemorySink tracer, which each test passes to the run it traces."""
    sink = MemorySink()
    return Tracer(sink), sink


def sweep(populations=(40, 50), replications=2):
    return sweep_request(
        options=[0.8, 0.5],
        populations=list(populations),
        horizon=6,
        replications=replications,
        seed=0,
        engine="loop",
    )


def records_by_name(sink, name, event="span_end"):
    out = []
    for trace_records in [sink.records(t) for t in all_trace_ids(sink)]:
        out.extend(
            r for r in trace_records if r["name"] == name and r["event"] == event
        )
    return out


def all_trace_ids(sink):
    with sink._lock:
        return list(sink._traces)


def sample_task(ordinal):
    return Task(
        ordinal=ordinal,
        point_index=ordinal,
        name=f"obs-{ordinal}",
        function_ref=REPLICATION_REF,
        mode="loop",
        parameters={"qualities": [0.8, 0.5], "N": 40, "T": 6},
        seeds=(100 + ordinal,),
        replicate_offset=0,
    )


def start_broker(address, **kwargs):
    holder = {}

    def target():
        try:
            holder["executed"] = run_broker(address, connect_timeout=10.0, **kwargs)
        except BaseException as error:  # noqa: BLE001 - surfaced by the test
            holder["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, holder


def start_vanishing_broker(address):
    """A protocol-speaking impostor: accept exactly one shard, then vanish.

    Unlike ``run_broker(max_shards=1)`` — which finishes its shard and so
    only *races* the coordinator into a requeue — this closes the socket
    while its shard is in flight, which forces the dropped-connection
    requeue path deterministically.
    """
    holder = {}

    def target():
        host, port = parse_address(address)
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            send_frame(sock, {"type": "hello", "workers": 1})
            frame = recv_frame(sock)
            holder["frame"] = frame
        finally:
            sock.close()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, holder


class TestRunPlanTracing:
    def test_shard_span_ids_identical_across_backends(self, tracing):
        # Same request, same shard partitioning (8 shards each way): the
        # serial and process-pool runs must record the *same* span ids —
        # the determinism contract that lets traces be diffed across hosts.
        tracer, _ = tracing
        request = sweep(populations=(40, 45, 50, 55), replications=2)

        def run(executor):
            sink = MemorySink()
            local = Tracer(sink)
            result = execute_request(
                request, options=ExecutionOptions(executor=executor, tracer=local)
            )
            spans = {
                (r["name"], r["span"], r["parent"], r["trace"])
                for t in all_trace_ids(sink)
                for r in sink.records(t)
                if r["event"] == "span_end"
            }
            return result.rows, spans

        shards = 2 * SHARDS_PER_WORKER
        serial_rows, serial_spans = run(SerialExecutor(num_shards=shards))
        parallel_rows, parallel_spans = run(ParallelExecutor(2))
        assert serial_rows == parallel_rows
        assert serial_spans == parallel_spans
        assert sum(1 for name, *_ in serial_spans if name == "shard") == shards

    def test_traced_run_matches_untraced_rows(self):
        request = sweep()
        untraced = execute_request(
            request, options=ExecutionOptions(executor=SerialExecutor())
        )
        traced = execute_request(
            request,
            options=ExecutionOptions(
                executor=SerialExecutor(), tracer=Tracer(MemorySink())
            ),
        )
        assert traced.rows == untraced.rows

    def test_tracer_alone_activates_the_runtime_path(self, tracing):
        # ExecutionOptions(tracer=...) with no executor/store must still
        # route through run_plan — otherwise nothing would be traced.
        tracer, sink = tracing
        execute_request(sweep(), options=ExecutionOptions(tracer=tracer))
        assert len(records_by_name(sink, "run_plan")) == 1
        assert records_by_name(sink, "shard")

    def test_every_record_is_schema_valid(self, tracing):
        tracer, sink = tracing
        execute_request(sweep(), options=ExecutionOptions(tracer=tracer))
        for trace_id in all_trace_ids(sink):
            for record in sink.records(trace_id):
                assert validate_record(record) == []

    def test_cache_hits_are_attributed(self, tracing, tmp_path):
        tracer, sink = tracing
        registry = get_registry()
        hits = registry.counter("repro_plan_cache_hits_total")
        misses = registry.counter("repro_plan_cache_misses_total")
        hits_before, misses_before = hits.value(), misses.value()
        request = sweep()
        with ResultStore(tmp_path / "cache.sqlite") as store:
            execute_request(
                request, options=ExecutionOptions(store=store, tracer=tracer)
            )
            cold_events = records_by_name(sink, "cache_lookup", event="event")
            assert cold_events[-1]["attributes"]["hits"] == 0
            task_count = cold_events[-1]["attributes"]["tasks"]
            assert misses.value() - misses_before == task_count
            execute_request(
                request, options=ExecutionOptions(store=store, tracer=tracer)
            )
        warm_events = records_by_name(sink, "cache_lookup", event="event")
        assert warm_events[-1]["attributes"] == {
            "hits": task_count,
            "misses": 0,
            "tasks": task_count,
        }
        assert hits.value() - hits_before == task_count
        # the warm run dispatched nothing, so both run_plan spans exist but
        # the shard span count did not grow
        warm_run_plans = records_by_name(sink, "run_plan")
        assert len(warm_run_plans) == 2
        assert warm_run_plans[0]["span"] == warm_run_plans[1]["span"]
        assert len(records_by_name(sink, "shard")) == task_count  # cold only

    def test_shard_spans_carry_worker_timing_and_rows(self, tracing):
        tracer, sink = tracing
        execute_request(sweep(), options=ExecutionOptions(tracer=tracer))
        for shard in records_by_name(sink, "shard"):
            assert shard["wall_s"] > 0.0
            assert shard["attributes"]["rows"] > 0
            assert shard["attributes"]["rows_per_s"] > 0.0


class TestBrokerTracing:
    def test_requeue_emits_structured_event_and_counter(self, tracing, caplog):
        tracer, sink = tracing
        registry = get_registry()
        requeues = registry.counter("repro_broker_requeues_total")
        requeues_before = requeues.value()
        shards = [[sample_task(i)] for i in range(4)]
        with caplog.at_level(logging.WARNING, logger="repro.campaign.broker"):
            with tracer.span("campaign", "requeue-drill"):
                with BrokerBackend(min_brokers=2, timeout=15.0) as backend:
                    crashy_thread, crashy = start_vanishing_broker(backend.address)
                    survivor_thread, _ = start_broker(backend.address)
                    results = list(
                        backend.run_shards(shards, dynamics_point_replication)
                    )
        crashy_thread.join(timeout=10.0)
        survivor_thread.join(timeout=10.0)
        assert len(results) == 4
        assert crashy["frame"]["type"] == "shard"  # it really held a shard
        assert requeues.value() - requeues_before >= 1
        requeue_logs = [
            record
            for record in caplog.records
            if record.message.startswith("broker_requeue")
        ]
        assert requeue_logs
        assert "broker=" in requeue_logs[0].message
        assert "shard=" in requeue_logs[0].message
        assert "in_flight=" in requeue_logs[0].message
        events = records_by_name(sink, "broker_requeue", event="event")
        assert events
        assert set(events[0]["attributes"]) == {"broker", "shard", "in_flight"}

    def test_requeue_event_joins_the_run_plan_span_of_the_given_tracer(
        self, tracing
    ):
        # As the CLI runs it: the tracer is handed to run_plan, and no span
        # is open around the call.
        tracer, sink = tracing
        configs = sweep_configs(
            "requeue",
            ParameterGrid({"N": [40, 50]}),
            replications=4,
            seed=0,
            base_parameters={"qualities": (0.8, 0.5), "T": 6},
        )
        plan = ShardPlan.from_configs(configs, dynamics_point_replication)
        with BrokerBackend(min_brokers=2, timeout=15.0) as backend:
            crashy_thread, crashy = start_vanishing_broker(backend.address)
            survivor_thread, _ = start_broker(backend.address)
            rows = run_plan(
                plan, dynamics_point_replication, executor=backend, tracer=tracer
            )
        crashy_thread.join(timeout=10.0)
        survivor_thread.join(timeout=10.0)
        assert not crashy_thread.is_alive() and not survivor_thread.is_alive()
        assert [len(point) for point in rows] == [4, 4]
        assert crashy["frame"]["type"] == "shard"  # it vanished holding one
        [run_plan_span] = records_by_name(sink, "run_plan")
        [event] = records_by_name(sink, "broker_requeue", event="event")
        assert event["span"] == run_plan_span["span"]
        assert event["trace"] == run_plan_span["trace"]

    def test_broker_shard_timing_reaches_the_driver(self, tracing):
        # The result frame's worker-measured timing must become the shard
        # span's wall time, not the coordinator round-trip.
        tracer, sink = tracing
        with BrokerBackend(min_brokers=1, timeout=15.0) as backend:
            thread, _ = start_broker(backend.address)
            execute_request(
                sweep(), options=ExecutionOptions(executor=backend, tracer=tracer)
            )
        thread.join(timeout=10.0)
        shards = records_by_name(sink, "shard")
        assert shards
        for shard in shards:
            assert shard["wall_s"] > 0.0
            assert shard["cpu_s"] >= 0.0


class TestCampaignTracing:
    def campaign_spec(self):
        return {
            "name": "traced",
            "nodes": [
                {
                    "id": "sim",
                    "kind": "simulate",
                    "request": {
                        "kind": "sweep",
                        "options": [0.8, 0.5],
                        "populations": list(range(30, 80, 5)),  # 10 points
                        "horizon": 6,
                        "replications": 2,  # x2 -> 20 loop tasks
                        "engine": "loop",
                    },
                },
                {"id": "stats", "kind": "analyse", "inputs": ["sim"]},
                {"id": "summary", "kind": "report", "inputs": ["stats"]},
            ],
        }

    def run_traced(self, backend=None, close=False):
        campaign = campaign_from_spec(self.campaign_spec())
        sink = MemorySink()
        tracer = Tracer(sink)
        threads = []
        if backend == "broker":
            backend = BrokerBackend(min_brokers=2, timeout=15.0)
            threads = [start_broker(backend.address)[0] for _ in range(2)]
        try:
            # The serial run cuts the plan as two brokers do (four shards
            # each), so shard span ids, derived from shard contents, agree.
            result = run_campaign(
                campaign,
                backend=backend or SerialExecutor(num_shards=2 * SHARDS_PER_WORKER),
                tracer=tracer,
            )
        finally:
            if close and backend is not None:
                backend.close()
        for thread in threads:
            thread.join(timeout=10.0)
        trace_id = next(iter(all_trace_ids(sink)))
        return result, sink.records(trace_id)

    def test_two_broker_campaign_spans_one_per_shard_and_node(self, tracing):
        result, records = self.run_traced(backend="broker", close=True)
        problems = [validate_record(r) for r in records if validate_record(r)]
        assert problems == []
        ends = [r for r in records if r["event"] == "span_end"]
        by_name = {}
        for record in ends:
            by_name.setdefault(record["name"], []).append(record)

        # one root, one span per DAG node, one run_plan under the simulate
        # node, one span per dispatched shard (20 tasks across 8 shards,
        # four per broker)
        assert len(by_name["campaign"]) == 1
        assert len(by_name["campaign_node"]) == 3
        assert len(by_name["run_plan"]) == 1
        assert len(by_name["shard"]) == 2 * SHARDS_PER_WORKER

        root = by_name["campaign"][0]
        nodes = {r["attributes"]["node"]: r for r in by_name["campaign_node"]}
        assert set(nodes) == {"sim", "stats", "summary"}
        for node in nodes.values():
            assert node["parent"] == root["span"]
            assert node["trace"] == root["trace"]
        run_plan = by_name["run_plan"][0]
        assert run_plan["parent"] == nodes["sim"]["span"]
        for shard in by_name["shard"]:
            assert shard["parent"] == run_plan["span"]
            assert shard["trace"] == root["trace"]
        # the DAG edges ride on the node spans
        assert nodes["stats"]["attributes"]["inputs"] == ["sim"]
        assert nodes["summary"]["attributes"]["inputs"] == ["stats"]
        assert {r.kind for r in result.campaign.nodes} == {
            "simulate",
            "analyse",
            "report",
        }

    def test_span_identities_match_between_serial_and_broker_runs(self, tracing):
        serial_result, serial_records = self.run_traced()
        broker_result, broker_records = self.run_traced(
            backend="broker", close=True
        )

        def identities(records):
            return {
                (r["name"], r["trace"], r["span"], r["parent"])
                for r in records
                if r["event"] == "span_end"
            }

        assert identities(serial_records) == identities(broker_records)
        assert [
            list(serial_result[n].rows) for n in serial_result.order
        ] == [list(broker_result[n].rows) for n in broker_result.order]
