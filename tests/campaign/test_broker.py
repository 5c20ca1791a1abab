"""Socket coordinator/broker backend: framing, fault tolerance, bit-identity.

Brokers run as daemon threads inside the test process (:func:`run_broker` is
pure stdlib and thread-safe with ``workers=1``), so these tests exercise the
real wire protocol over loopback TCP without spawning subprocesses.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import threading

import pytest

from repro.campaign import (
    BrokerBackend,
    BrokerError,
    BrokerProtocolError,
    campaign_from_spec,
    parse_address,
    run_broker,
    run_campaign,
)
from repro.campaign.broker import (
    MAX_FRAME_BYTES,
    recv_frame,
    send_frame,
    task_from_wire,
    task_to_wire,
)
from repro.experiments import ParameterGrid, sweep_configs
from repro.experiments.dynamics_sweep import dynamics_point_replication
from repro.obs.metrics import get_registry
from repro.runtime import ResultStore, SerialExecutor, ShardPlan, execute_task, run_plan
from repro.runtime.executors import SHARDS_PER_WORKER
from repro.runtime.shard import Task

REPLICATION_REF = "repro.experiments.dynamics_sweep:dynamics_point_replication"

SWEEP_REQUEST = {
    "kind": "sweep",
    "options": [0.8, 0.5],
    "populations": [50],
    "horizon": 6,
    "replications": 3,
    "engine": "loop",
}


def campaign_spec():
    return {
        "name": "broker-demo",
        "nodes": [
            {"id": "sim", "kind": "simulate", "request": dict(SWEEP_REQUEST)},
            {"id": "stats", "kind": "analyse", "inputs": ["sim"]},
            {"id": "summary", "kind": "report", "inputs": ["stats"]},
        ],
    }


def sample_task(ordinal=0, seeds=(11, 12)):
    return Task(
        ordinal=ordinal,
        point_index=ordinal,
        name=f"wire-{ordinal}",
        function_ref=REPLICATION_REF,
        mode="loop",
        parameters={"qualities": [0.8, 0.5], "N": 40, "T": 6},
        seeds=tuple(seeds),
        replicate_offset=0,
    )


def start_broker(address, **kwargs):
    """Run one broker in a daemon thread; returns (thread, result holder)."""
    holder = {}

    def target():
        try:
            holder["executed"] = run_broker(address, connect_timeout=10.0, **kwargs)
        except BaseException as error:  # noqa: BLE001 - surfaced by the test
            holder["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, holder


class TestAddressParsing:
    def test_round_trip(self):
        assert parse_address("tcp://127.0.0.1:9000") == ("127.0.0.1", 9000)

    @pytest.mark.parametrize(
        "bad",
        ["127.0.0.1:9000", "tcp://:9000", "tcp://host:", "tcp://host:notaport"],
    )
    def test_malformed_addresses_rejected(self, bad):
        with pytest.raises(ValueError, match="broker address"):
            parse_address(bad)


class TestWireFormat:
    def test_task_round_trips_through_json(self):
        task = sample_task()
        restored = task_from_wire(task_to_wire(task))
        assert restored == task
        assert restored.seeds == (11, 12)  # tuple of ints, not list

    def test_malformed_task_frame_raises_protocol_error(self):
        with pytest.raises(BrokerProtocolError, match="malformed task frame"):
            task_from_wire({"ordinal": 0})

    def test_frame_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"type": "hello", "workers": 3})
            assert recv_frame(right) == {"type": "hello", "workers": 3}
        finally:
            left.close()
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 2**31))
            with pytest.raises(BrokerProtocolError, match="exceeds the protocol cap"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_untyped_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            payload = b'{"no_type": 1}'
            left.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(BrokerProtocolError, match="not a typed message"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


def framed(payload):
    return struct.pack(">I", len(payload)) + payload


PEER = r"from 127\.0\.0\.1:\d+"
# Raw bytes a lying broker sends, and the error the coordinator raises.
BAD_FRAMES = {
    "oversized": (
        struct.pack(">I", MAX_FRAME_BYTES + 1),
        rf"frame of \d+ bytes {PEER} exceeds the protocol cap",
    ),
    "not-json": (framed(b"not json"), rf"frame {PEER} is not valid JSON"),
    "not-utf8": (framed(b"\xff\xfe"), rf"frame {PEER} is not valid JSON"),
    "untyped": (framed(b'{"rows": []}'), rf"frame {PEER} is not a typed message"),
}


class TestCoordinatorFraming:
    """A broker's bad frame fails the run with the error naming the broker."""

    @pytest.mark.parametrize("bad", sorted(BAD_FRAMES))
    def test_bad_result_frame_raises_protocol_error(self, bad):
        raw, pattern = BAD_FRAMES[bad]
        connected = []

        def lying_broker(address):
            sock = socket.create_connection(parse_address(address), timeout=10.0)
            connected.append(sock)
            send_frame(sock, {"type": "hello", "workers": 1})
            assert recv_frame(sock)["type"] == "shard"
            sock.sendall(raw)

        with BrokerBackend(timeout=10.0) as backend:
            thread = threading.Thread(
                target=lying_broker, args=(backend.address,), daemon=True
            )
            thread.start()
            try:
                with pytest.raises(BrokerProtocolError, match=pattern):
                    list(
                        backend.run_shards(
                            [[sample_task()]], dynamics_point_replication
                        )
                    )
            finally:
                thread.join(timeout=10.0)
                for sock in connected:
                    sock.close()


# Well-framed result blocks that a local shard's check would reject: for each
# task of the shard, what a lying broker returns.
BAD_ROW_BLOCKS = {
    "empty-blocks": lambda seeds: [],
    "string-metric": lambda seeds: [
        {"regret": "nan", "best_option_share": 0.5} for _ in seeds
    ],
    "empty-rows": lambda seeds: [{} for _ in seeds],
    "bool-metric": lambda seeds: [
        {"regret": True, "best_option_share": 0.5} for _ in seeds
    ],
}


def answering_broker(address, connected, answer):
    """A broker that answers every shard message with the frame ``answer(message)``."""
    sock = socket.create_connection(parse_address(address), timeout=10.0)
    connected.append(sock)
    send_frame(sock, {"type": "hello", "workers": 1})
    while True:
        try:
            message = recv_frame(sock)
        except (ConnectionError, OSError):
            return
        if message["type"] != "shard":
            return
        send_frame(sock, answer(message))


def vanishing_broker(address, connected):
    """A broker that takes one shard and hangs up without answering it."""
    sock = socket.create_connection(parse_address(address), timeout=10.0)
    connected.append(sock)
    send_frame(sock, {"type": "hello", "workers": 1})
    assert recv_frame(sock)["type"] == "shard"
    sock.close()


def result_of(rows_for):
    """An answer: a result frame holding ``rows_for(seeds)`` for each task."""
    return lambda message: {
        "type": "result",
        "shard": message["shard"],
        "rows": [rows_for(task["seeds"]) for task in message["tasks"]],
    }


def three_task_plan():
    configs = sweep_configs(
        "lying-broker",
        ParameterGrid({"N": [40]}),
        replications=3,
        seed=5,
        base_parameters={"qualities": (0.8, 0.5), "T": 6},
    )
    return ShardPlan.from_configs(configs, dynamics_point_replication)


@contextlib.contextmanager
def lying_backend(answer):
    """A backend whose one broker answers every shard with ``answer(message)``."""
    connected = []
    with BrokerBackend(timeout=10.0) as backend:
        thread = threading.Thread(
            target=answering_broker,
            args=(backend.address, connected, answer),
            daemon=True,
        )
        thread.start()
        try:
            yield backend
        finally:
            backend.close()
            thread.join(timeout=10.0)
            for sock in connected:
                sock.close()
    assert not thread.is_alive()


def _brokers_in_flight() -> float:
    return get_registry().gauge("repro_shards_in_flight").value(backend="broker")


class TestBrokerResultChecks:
    """Rows a local shard would reject fail the run before any is stored.

    A refused or failed shard is off the wire all the same, so it leaves the
    in-flight gauge where it found it.
    """

    @pytest.mark.parametrize("bad", sorted(BAD_ROW_BLOCKS))
    def test_bad_row_blocks_never_reach_the_store(self, bad):
        # The refused shard is off the wire, so it leaves the in-flight
        # gauge where it found it.
        gauge = _brokers_in_flight()
        with ResultStore() as store:
            with lying_backend(result_of(BAD_ROW_BLOCKS[bad])) as backend:
                with pytest.raises(
                    BrokerProtocolError,
                    match=r"broker 127\.0\.0\.1:\d+ returned .* of shard \d+",
                ):
                    run_plan(
                        three_task_plan(),
                        dynamics_point_replication,
                        executor=backend,
                        store=store,
                    )
            assert len(store) == 0
        assert _brokers_in_flight() == gauge

    def test_a_failed_shard_leaves_the_gauge_where_it_found_it(self):
        def failure(message):
            return {"type": "error", "shard": message["shard"], "message": "boom"}

        gauge = _brokers_in_flight()
        with lying_backend(failure) as backend:
            with pytest.raises(BrokerError, match=r"failed shard \d+: boom"):
                run_plan(
                    three_task_plan(), dynamics_point_replication, executor=backend
                )
        assert _brokers_in_flight() == gauge

    def test_a_nan_metric_is_a_number(self):
        # NaN crosses the wire as JSON NaN, a float, as a local row may hold.
        def nan_rows(seeds):
            return [{"regret": float("nan"), "best_option_share": 1} for _ in seeds]

        with ResultStore() as store:
            with lying_backend(result_of(nan_rows)) as backend:
                rows = run_plan(
                    three_task_plan(),
                    dynamics_point_replication,
                    executor=backend,
                    store=store,
                )
            assert len(store) == 3
        assert len(rows[0]) == 3
        for row in rows[0]:
            assert row["regret"] != row["regret"]  # NaN
            assert row["best_option_share"] == 1.0
            assert isinstance(row["best_option_share"], float)


class TestBrokerValidation:
    def test_invalid_num_shards(self):
        # The shard count follows the fleet (four per broker, counting at
        # least min_brokers), so no caller can set a wrong one.
        with pytest.raises(TypeError, match="num_shards"):
            BrokerBackend(num_shards=16)
        with BrokerBackend(min_brokers=3) as backend:
            assert backend.num_shards == 3 * SHARDS_PER_WORKER

    def test_invalid_min_brokers(self):
        with pytest.raises(ValueError, match="min_brokers"):
            BrokerBackend(min_brokers=0)

    def test_invalid_broker_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            run_broker("tcp://127.0.0.1:1", workers=0)

    def test_closed_backend_refuses_work(self):
        backend = BrokerBackend()
        backend.close()
        with pytest.raises(BrokerError, match="closed"):
            list(
                backend.run_shards([[sample_task()]], dynamics_point_replication)
            )

    def test_timeout_with_no_brokers(self):
        with BrokerBackend(timeout=0.3) as backend:
            with pytest.raises(BrokerError, match="no broker progress"):
                list(
                    backend.run_shards(
                        [[sample_task()]], dynamics_point_replication
                    )
                )

    def test_closure_replication_rejected_before_dispatch(self):
        def closure(seed, parameters):
            return {"x": 0.0}

        with BrokerBackend(timeout=0.3) as backend:
            with pytest.raises(ValueError, match="importable at module level"):
                list(backend.run_shards([[sample_task()]], closure))


class TestShardExecution:
    def test_results_stream_back_bit_identical_to_local_execution(self):
        tasks = [sample_task(0), sample_task(1)]
        with BrokerBackend(timeout=10.0) as backend:
            thread, holder = start_broker(backend.address)
            results = list(
                backend.run_shards(
                    [[tasks[0]], [tasks[1]]], dynamics_point_replication
                )
            )
        thread.join(timeout=10.0)
        assert "error" not in holder
        assert holder["executed"] == 2
        merged = {task.ordinal: rows for shard in results for task, rows in shard}
        expected = {
            task.ordinal: execute_task(task, dynamics_point_replication)
            for task in tasks
        }
        assert merged == expected

    def test_result_rows_pair_with_the_coordinators_own_tasks(self):
        task = sample_task()
        with BrokerBackend(timeout=10.0) as backend:
            thread, _ = start_broker(backend.address)
            stream = backend.run_shards([[task]], dynamics_point_replication)
            ((returned_task, rows),) = next(stream)
            list(stream)  # drain to completion
        thread.join(timeout=10.0)
        assert returned_task is task  # identity, not a wire round-trip copy
        assert len(rows) == len(task.seeds)

    def test_an_abandoned_run_leaves_the_gauge_where_it_found_it(self):
        # The consumer stops after the first result while the other broker
        # still holds its shard; close() takes that shard off the gauge.
        gauge = _brokers_in_flight()
        with BrokerBackend(min_brokers=2, timeout=10.0) as backend:
            threads = [start_broker(backend.address)[0] for _ in range(2)]
            stream = backend.run_shards(
                [[sample_task(0)], [sample_task(1)]], dynamics_point_replication
            )
            next(stream)
            stream.close()
            assert _brokers_in_flight() == gauge + 1
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert _brokers_in_flight() == gauge

    def test_a_finished_run_leaves_the_gauge_where_it_found_it(self):
        gauge = _brokers_in_flight()
        with BrokerBackend(timeout=10.0) as backend:
            thread, holder = start_broker(backend.address)
            results = list(
                backend.run_shards(
                    [[sample_task(0)], [sample_task(1)]], dynamics_point_replication
                )
            )
            # Read before close(): each accepted result left the gauge.
            assert _brokers_in_flight() == gauge
        thread.join(timeout=10.0)
        assert holder["executed"] == 2
        assert len(results) == 2

    def test_a_requeued_shard_leaves_the_gauge_where_it_found_it(self):
        # One broker hangs up holding its shard; the survivor runs both.
        requeues = get_registry().counter("repro_broker_requeues_total")
        requeued = requeues.value()
        gauge = _brokers_in_flight()
        connected = []
        with BrokerBackend(min_brokers=2, timeout=10.0) as backend:
            vanisher = threading.Thread(
                target=vanishing_broker,
                args=(backend.address, connected),
                daemon=True,
            )
            vanisher.start()
            survivor, holder = start_broker(backend.address)
            results = list(
                backend.run_shards(
                    [[sample_task(0)], [sample_task(1)]], dynamics_point_replication
                )
            )
            # Read before close(): dropping the vanished broker took its
            # shard off the gauge, and the survivor's result took it again.
            assert _brokers_in_flight() == gauge
        vanisher.join(timeout=10.0)
        survivor.join(timeout=10.0)
        for sock in connected:
            sock.close()
        assert requeues.value() == requeued + 1
        assert holder["executed"] == 2
        assert len(results) == 2

    def test_task_failure_aborts_the_run(self):
        broken = Task(
            ordinal=0,
            point_index=0,
            name="broken",
            function_ref="repro.experiments.dynamics_sweep:does_not_exist",
            mode="loop",
            parameters={},
            seeds=(1,),
            replicate_offset=0,
        )
        with BrokerBackend(timeout=10.0) as backend:
            thread, _ = start_broker(backend.address)
            with pytest.raises(BrokerError, match="failed shard"):
                list(backend.run_shards([[broken]], dynamics_point_replication))
        thread.join(timeout=10.0)


class TestCampaignOnBrokers:
    def test_two_brokers_bit_identical_to_serial(self):
        campaign = campaign_from_spec(campaign_spec())
        serial = run_campaign(campaign, backend=SerialExecutor())
        with BrokerBackend(min_brokers=2, timeout=15.0) as backend:
            threads = [start_broker(backend.address)[0] for _ in range(2)]
            brokered = run_campaign(campaign, backend=backend)
        for thread in threads:
            thread.join(timeout=10.0)
        assert [list(brokered[n].rows) for n in brokered.order] == [
            list(serial[n].rows) for n in serial.order
        ]

    def test_a_pooled_broker_matches_serial(self):
        # A --workers 2 broker runs every shard on one pool, split as the
        # driver splits a plan: each of the grid node's four three-point
        # shards fuses two points into one launch, and the rows still come
        # back in task order.
        spec = campaign_spec()
        spec["nodes"].append(
            {"id": "grid", "kind": "simulate", "request": {
                "kind": "sweep", "options": [0.8, 0.5],
                "populations": list(range(40, 100, 5)), "horizon": 6,
                "replications": 3}}
        )
        campaign = campaign_from_spec(spec)
        serial = run_campaign(campaign, backend=SerialExecutor())
        with BrokerBackend(timeout=30.0) as backend:
            thread, holder = start_broker(backend.address, workers=2)
            brokered = run_campaign(campaign, backend=backend)
        thread.join(timeout=30.0)
        assert "error" not in holder
        # Four shards per broker: the loop node's three tasks, then the
        # grid node's twelve points in four shards of three.
        assert holder["executed"] == 3 + 4
        assert [list(brokered[n].rows) for n in brokered.order] == [
            list(serial[n].rows) for n in serial.order
        ]

    def test_killing_a_broker_mid_campaign_loses_at_most_one_shard(self):
        # One broker vanishes after a single shard (the deterministic crash
        # stand-in); the survivor absorbs the requeued work and the campaign
        # still matches the serial run bit for bit.
        campaign = campaign_from_spec(campaign_spec())
        serial = run_campaign(campaign, backend=SerialExecutor())
        with BrokerBackend(min_brokers=2, timeout=15.0) as backend:
            crashy_thread, crashy = start_broker(backend.address, max_shards=1)
            survivor_thread, survivor = start_broker(backend.address)
            brokered = run_campaign(campaign, backend=backend)
        crashy_thread.join(timeout=10.0)
        survivor_thread.join(timeout=10.0)
        assert crashy.get("executed") == 1
        assert survivor.get("executed", 0) >= 1
        assert [list(brokered[n].rows) for n in brokered.order] == [
            list(serial[n].rows) for n in serial.order
        ]

    def test_resume_after_crash_replays_from_the_store(self, tmp_path):
        # Kill-and-resume acceptance: a campaign re-run against the same
        # store completes with zero new cache misses, even when the first
        # run rode through a broker crash.
        campaign = campaign_from_spec(campaign_spec())
        with ResultStore(tmp_path / "resume.sqlite") as store:
            with BrokerBackend(min_brokers=2, timeout=15.0) as backend:
                crashy_thread, _ = start_broker(backend.address, max_shards=1)
                survivor_thread, _ = start_broker(backend.address)
                cold = run_campaign(campaign, backend=backend, store=store)
            crashy_thread.join(timeout=10.0)
            survivor_thread.join(timeout=10.0)
            misses_after_cold = store.counters().misses
            assert misses_after_cold > 0
            with BrokerBackend(min_brokers=1, timeout=15.0) as backend:
                idle_thread, _ = start_broker(backend.address)
                warm = run_campaign(campaign, backend=backend, store=store)
            idle_thread.join(timeout=10.0)
            assert store.counters().misses == misses_after_cold  # 0 new misses
        assert [list(warm[n].rows) for n in warm.order] == [
            list(cold[n].rows) for n in cold.order
        ]


class TestLateAndPersistentBrokers:
    def test_broker_joining_mid_run_is_used(self):
        # The first broker dies after two of the four shards; a broker that
        # dials in mid-run must be accepted and serve the remainder.
        shards = [[sample_task(i)] for i in range(4)]
        with BrokerBackend(min_brokers=1, timeout=15.0) as backend:
            first_thread, first = start_broker(backend.address, max_shards=2)
            stream = backend.run_shards(shards, dynamics_point_replication)
            results = [next(stream), next(stream)]
            late_thread, late = start_broker(backend.address)
            results.extend(stream)
        first_thread.join(timeout=10.0)
        late_thread.join(timeout=10.0)
        assert len(results) == 4
        assert first["executed"] == 2
        assert late["executed"] == 2

    def test_one_fleet_serves_consecutive_runs(self):
        with BrokerBackend(timeout=15.0) as backend:
            thread, holder = start_broker(backend.address)
            first = list(
                backend.run_shards(
                    [[sample_task(0)]], dynamics_point_replication
                )
            )
            second = list(
                backend.run_shards(
                    [[sample_task(1)]], dynamics_point_replication
                )
            )
        thread.join(timeout=10.0)
        assert holder["executed"] == 2
        assert len(first) == len(second) == 1

    def test_a_fleet_below_min_brokers_still_serves_the_next_run(self):
        # min_brokers gates the backend's first dispatch only: a campaign's
        # next simulate node runs on the survivors of a broker that died.
        with BrokerBackend(min_brokers=2, timeout=3.0) as backend:
            crashy_thread, crashy = start_broker(backend.address, max_shards=1)
            survivor_thread, survivor = start_broker(backend.address)
            first = list(
                backend.run_shards(
                    [[sample_task(i)] for i in range(3)], dynamics_point_replication
                )
            )
            crashy_thread.join(timeout=10.0)
            second = list(
                backend.run_shards([[sample_task(3)]], dynamics_point_replication)
            )
        survivor_thread.join(timeout=10.0)
        assert crashy["executed"] == 1
        assert survivor["executed"] == 3
        assert len(first) == 3 and len(second) == 1
