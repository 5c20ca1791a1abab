"""Tests for the content-addressed ResultStore."""

import json
import re
import sqlite3
import sys
import threading
from datetime import datetime

import numpy as np
import pytest

import repro.runtime.store as store_module
from repro import __version__
from repro.experiments import ExperimentConfig, ParameterGrid, sweep_configs
from repro.experiments.dynamics_sweep import (
    dynamics_grid_replication,
    dynamics_point_replication,
)
from repro.experiments.network_sweep import network_batched_replication
from repro.runtime import (
    ResultStore,
    ShardPlan,
    StoreError,
    Task,
    canonical_json,
    canonical_value,
    execute_task,
    run_plan,
    task_key,
    task_keys,
)

BASE = {"qualities": (0.8, 0.5), "T": 10, "N": 50}


def make_task(parameters=None, seeds=None, replications=2, seed=0):
    config = ExperimentConfig(
        name="store-test",
        parameters=dict(parameters or BASE),
        replications=replications,
        seed=seed,
    )
    plan = ShardPlan.from_configs([config], dynamics_point_replication)
    task = plan.tasks[0]
    if seeds is not None:
        task = type(task)(
            ordinal=task.ordinal,
            point_index=task.point_index,
            name=task.name,
            function_ref=task.function_ref,
            mode=task.mode,
            parameters=task.parameters,
            seeds=tuple(seeds),
            replicate_offset=task.replicate_offset,
        )
    return task


class TestCanonicalJson:
    def test_key_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuple_and_list_equivalent(self):
        assert canonical_json({"q": (0.8, 0.5)}) == canonical_json({"q": [0.8, 0.5]})

    def test_numpy_scalars_normalised(self):
        assert canonical_json({"n": np.int64(5)}) == canonical_json({"n": 5})
        assert canonical_json({"x": np.float64(0.5)}) == canonical_json({"x": 0.5})

    def test_numpy_arrays_normalised(self):
        assert canonical_json({"q": np.array([0.8, 0.5])}) == canonical_json(
            {"q": [0.8, 0.5]}
        )

    def test_none_and_bool_supported(self):
        assert canonical_json({"a": None, "b": True}) == '{"a":null,"b":true}'

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="canonical cache key"):
            canonical_json({"bad": object()})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="parameter names"):
            canonical_json({1: "x"})


class TestNonFiniteRejection:
    """RFC 8259 has no NaN/Infinity tokens — such keys must be refused loudly.

    The old encoder passed ``float("nan")`` straight to ``json.dumps``, which
    happily emits the non-standard ``NaN`` token; the resulting key could not
    round-trip through any strict JSON parser, and ``NaN != NaN`` made the
    parameter unmatchable anyway.
    """

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_bare_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_value(value)

    def test_numpy_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_value(np.float64("nan"))

    def test_nested_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"qualities": [0.8, float("inf")], "T": 10})

    def test_finite_floats_still_accepted(self):
        assert canonical_json({"x": 0.5}) == '{"x":0.5}'


class TestTaskKey:
    def test_parameter_order_does_not_change_the_key(self):
        first = make_task({"T": 10, "N": 50, "qualities": (0.8, 0.5)})
        second = make_task({"qualities": (0.8, 0.5), "N": 50, "T": 10})
        assert task_key(first) == task_key(second)

    def test_different_seeds_change_the_key(self):
        assert task_key(make_task(seeds=[1])) != task_key(make_task(seeds=[2]))

    def test_different_parameters_change_the_key(self):
        other = dict(BASE, N=100)
        assert task_key(make_task(BASE)) != task_key(make_task(other))

    def test_code_version_changes_the_key(self):
        task = make_task()
        assert task_key(task, "v1") != task_key(task, "v2")


def pinned_loop_sweep_task():
    configs = sweep_configs(
        "pin-loop",
        ParameterGrid({"N": [20, 40], "beta": [0.55, 0.7]}),
        replications=3,
        seed=11,
        base_parameters={"qualities": (0.8, 0.5), "T": 10},
    )
    return ShardPlan.from_configs(configs, dynamics_point_replication).tasks[7]


def pinned_batched_network_task():
    config = ExperimentConfig(
        name="network-batched",
        parameters={
            "qualities": (0.9, 0.6, 0.3),
            "topology": "watts_strogatz",
            "N": 500,
            "T": 40,
            "beta": 0.6,
            "graph_seed": 5,
            "mu": 0.05,
        },
        replications=4,
        seed=21,
    )
    return ShardPlan.from_configs([config], network_batched_replication).tasks[0]


def pinned_float32_grid_task():
    configs = sweep_configs(
        "pin-grid",
        ParameterGrid({"N": [100, 200]}),
        replications=5,
        seed=3,
        base_parameters={
            "qualities": (0.8, 0.5, 0.5),
            "T": 25,
            "beta": 0.6,
            "dtype": "float32",
        },
    )
    return ShardPlan.from_configs(configs, dynamics_grid_replication).tasks[1]


def pinned_awkward_task():
    return Task(
        ordinal=0,
        point_index=0,
        name="pin-awkward",
        function_ref="repro.experiments.dynamics_sweep:dynamics_point_replication",
        mode="loop",
        parameters={
            "N": np.int64(64),
            "beta": np.float32(0.625),
            "mu": np.float64(0.1),
            "qualities": np.array([0.75, 0.5]),
            "label": "Gruppe \u00fcber \u2013 \u793e\u4f1a",
            "flag": np.bool_(True),
        },
        seeds=(7, 8),
        replicate_offset=0,
    )


# (task builder, code version, SHA-256 digest), computed with the per-task
# encoder that preceded ``task_keys``.  Every store on disk is addressed by
# these bytes: a changed digest turns each stored entry into a miss.
# Bumping ``repro.__version__`` changes the default-version keys by design;
# re-pin them in the same change.  The network task is the first per-seed
# task of its point: its digest is the key the point had at
# ``replications=1`` when network points were one task holding every seed,
# so an R = 1 row stored then still serves it.
PINNED_KEYS = [
    (
        pinned_loop_sweep_task,
        __version__,
        "ab4590b3a493441a17a08c8dcbe8a49c976c7dcba2a2c6437657571b36b172cf",
    ),
    (
        pinned_batched_network_task,
        __version__,
        "16cbc246992a42b23d9368bc5e61576e55743f6c8c7baf73e2da97edcbef1ace",
    ),
    (
        pinned_float32_grid_task,
        __version__,
        "4f827190efca48aa9918dfe99bb2b162dae906ce341c859a11485adc9fc4bff6",
    ),
    (
        pinned_awkward_task,
        __version__,
        "888427ffa1e6e63ec9edfc19c1993efc3d2c3ed9aa33088b099d0317b3d7fe6b",
    ),
    (
        pinned_loop_sweep_task,
        "0.9.0-pinned",
        "e27536142bbd3c4251c3413ceb7aff8b483a15899edb9ab6cc7f08414acf8bc8",
    ),
]
PINNED_IDS = ["loop-sweep", "batched-network", "float32-grid", "awkward", "old-version"]


class TestPinnedKeys:
    """The content addresses themselves, not only their equalities."""

    def test_pinned_tasks_are_the_intended_ones(self):
        assert pinned_loop_sweep_task().mode == "loop"
        assert pinned_batched_network_task().mode == "grid"
        assert pinned_float32_grid_task().mode == "grid"
        assert pinned_float32_grid_task().parameters["dtype"] == "float32"

    @pytest.mark.parametrize("build, code_version, digest", PINNED_KEYS, ids=PINNED_IDS)
    def test_every_entry_point_returns_the_pinned_digest(
        self, build, code_version, digest
    ):
        task = build()
        assert task_key(task, code_version) == digest
        assert task_keys([task], code_version) == [digest]
        with ResultStore(code_version=code_version) as store:
            assert store.key_for(task) == digest
            assert store.keys_for([task]) == [digest]

    def test_one_pass_over_all_pinned_tasks(self):
        tasks = [build() for build, _, _ in PINNED_KEYS[:4]]
        digests = [digest for _, _, digest in PINNED_KEYS[:4]]
        assert task_keys(tasks) == digests
        with ResultStore() as store:
            assert store.keys_for(tasks) == digests

    def test_put_many_writes_under_the_pinned_digests(self):
        tasks = [build() for build, _, _ in PINNED_KEYS[:4]]
        with ResultStore() as store:
            keys = store.put_many((task, [{"metric": 1.0}]) for task in tasks)
            assert keys == [digest for _, _, digest in PINNED_KEYS[:4]]
            assert all(key in store for key in keys)


class TestResultStore:
    def test_miss_then_hit_round_trip(self):
        task = make_task()
        metrics = [{"regret": 0.5}, {"regret": 0.25}]
        with ResultStore() as store:
            key = store.key_for(task)
            assert store.get_many([key]) == {}
            store.put_many([(task, metrics)])
            assert store.get_many([key]) == {key: metrics}
            assert store.hits == 1
            assert store.misses == 1
            assert key in store
            assert len(store) == 1

    def test_contains_does_not_count(self):
        with ResultStore() as store:
            assert store.key_for(make_task()) not in store
            assert store.hits == 0
            assert store.misses == 0

    def test_put_overwrites(self):
        task = make_task()
        with ResultStore() as store:
            store.put_many([(task, [{"a": 1.0}, {"a": 1.0}])])
            (key,) = store.put_many([(task, [{"a": 2.0}, {"a": 2.0}])])
            assert len(store) == 1
            assert store.get_many([key]) == {key: [{"a": 2.0}, {"a": 2.0}]}

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "nested" / "results.sqlite"
        task = make_task()
        metrics = [{"regret": 0.125}, {"regret": 0.5}]
        with ResultStore(path) as store:
            store.put_many([(task, metrics)])
        with ResultStore(path) as reopened:
            key = reopened.key_for(task)
            assert reopened.get_many([key]) == {key: metrics}

    def test_code_version_isolates_entries(self, tmp_path):
        path = tmp_path / "versioned.sqlite"
        task = make_task()
        with ResultStore(path, code_version="v1") as store:
            store.put_many([(task, [{"a": 1.0}, {"a": 1.0}])])
        with ResultStore(path, code_version="v2") as upgraded:
            assert upgraded.get_many([upgraded.key_for(task)]) == {}

    def test_put_many_single_transaction(self):
        first = make_task(seeds=[1])
        second = make_task(seeds=[2])
        with ResultStore() as store:
            keys = store.put_many(
                [(first, [{"a": 1.0}]), (second, [{"a": 2.0}])]
            )
            assert len(keys) == 2
            assert len(store) == 2

    def test_empty_batches_touch_nothing(self):
        with ResultStore() as store:
            assert store.put_many([]) == []
            assert store.get_many([]) == {}
            assert len(store) == 0
            assert store.counters() == (0, 0)

    def test_counters_carry_only_hits_and_misses(self):
        with ResultStore() as store:
            store.get_many(["0" * 64])
            assert store.counters().as_dict() == {"hits": 0, "misses": 1}

    def test_new_store_has_one_table_without_location_columns(self, tmp_path):
        with ResultStore(tmp_path / "fresh.sqlite") as store:
            tables = store._connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall()
            columns = [
                row[1]
                for row in store._connection.execute("PRAGMA table_info(results)")
            ]
        assert tables == [("results",)]
        assert columns == [
            "key",
            "function",
            "name",
            "parameters",
            "seeds",
            "code_version",
            "metrics",
            "created_at",
        ]

    def test_put_records_the_task_provenance(self, tmp_path):
        task = make_task(seeds=[7, 8])
        with ResultStore(tmp_path / "provenance.sqlite", code_version="v9") as store:
            (key,) = store.put_many([(task, [{"metric": 1.0}, {"metric": 2.0}])])
            row = store._connection.execute(
                "SELECT function, name, parameters, seeds, code_version,"
                " created_at FROM results WHERE key = ?",
                (key,),
            ).fetchone()
        function, name, parameters, seeds, code_version, created_at = row
        assert function == task.function_ref
        assert name == task.name
        assert parameters == canonical_json(task.parameters)
        assert json.loads(seeds) == [7, 8]
        assert code_version == "v9"
        assert datetime.fromisoformat(created_at).tzinfo is not None

    @pytest.mark.parametrize(
        "operation",
        [
            lambda store: store.get_many(["0" * 64]),
            lambda store: store.put_many([(make_task(), [{"metric": 1.0}])]),
            lambda store: "0" * 64 in store,
            lambda store: len(store),
        ],
        ids=["get_many", "put_many", "contains", "len"],
    )
    def test_closed_store_rejects_every_operation(self, operation):
        store = ResultStore()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            operation(store)

    def test_context_manager_closes_when_the_body_raises(self):
        with pytest.raises(KeyError):
            with ResultStore() as store:
                raise KeyError("boom")
        assert store.closed


class TestThreadSafety:
    """Regression: the daemon's worker threads share one store concurrently.

    The old store used a default sqlite connection (``check_same_thread``
    on, no WAL, no busy timeout) and a positional ``INSERT OR REPLACE``, so
    any cross-thread access raised and any schema change silently misaligned
    columns.
    """

    THREADS = 6
    TASKS_PER_THREAD = 25

    def test_concurrent_readers_and_writers(self, tmp_path):
        store = ResultStore(tmp_path / "concurrent.sqlite")
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def hammer(worker):
            try:
                barrier.wait(timeout=10)
                for index in range(self.TASKS_PER_THREAD):
                    task = make_task(
                        parameters={**BASE, "worker": worker, "index": index},
                        seeds=[worker, index],
                    )
                    metrics = [{"metric": float(worker * 1000 + index)}] * 2
                    (key,) = store.put_many([(task, metrics)])
                    assert store.get_many([key]) == {key: metrics}
                    len(store)  # exercises the read path under contention
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(store) == self.THREADS * self.TASKS_PER_THREAD
        counters = store.counters()
        assert counters.hits == self.THREADS * self.TASKS_PER_THREAD
        assert counters.misses == 0
        store.close()

    def test_file_store_runs_in_wal_mode(self, tmp_path):
        store = ResultStore(tmp_path / "wal.sqlite")
        mode = store._connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        store.close()

    def test_file_store_waits_thirty_seconds_for_a_lock(self, tmp_path):
        with ResultStore(tmp_path / "busy.sqlite") as store:
            timeout = store._connection.execute("PRAGMA busy_timeout").fetchone()[0]
        assert timeout == 30_000

    def test_two_instances_share_one_file(self, tmp_path):
        # A CLI run next to a daemon: two connections on one file, each
        # seeing the other's committed rows, each with its own counters.
        path = tmp_path / "shared.sqlite"
        with ResultStore(path) as writer, ResultStore(path) as reader:
            metrics = [{"metric": 0.5}, {"metric": 0.25}]
            (key,) = writer.put_many([(make_task(), metrics)])
            assert reader.get_many([key]) == {key: metrics}
            assert len(reader) == 1
            assert reader.counters() == (1, 0)
            assert writer.counters() == (0, 0)

    def test_bulk_lookups_during_batched_writes(self, tmp_path):
        # The daemon shape: replay requests read a warm key set with
        # get_many while another job flushes shards with put_many.
        store = ResultStore(tmp_path / "replay.sqlite")
        values = [AWKWARD[seed % 5] for seed in range(40)]
        keys = store.put_many(
            (make_task(seeds=[seed]), [{"value": value}])
            for seed, value in enumerate(values)
        )
        warm = dict(zip(keys, values))
        batches = [
            [
                (make_task(seeds=[1000 + batch, index]), [{"value": float(index)}])
                for index in range(10)
            ]
            for batch in range(8)
        ]
        readers, rounds = 3, 20
        errors = []
        barrier = threading.Barrier(readers + 1)

        def read():
            try:
                barrier.wait(timeout=10)
                for _ in range(rounds):
                    found = store.get_many(list(warm))
                    assert {
                        key: np.float64(rows[0]["value"]).tobytes()
                        for key, rows in found.items()
                    } == {
                        key: np.float64(value).tobytes()
                        for key, value in warm.items()
                    }
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        def write():
            try:
                barrier.wait(timeout=10)
                for batch in batches:
                    store.put_many(batch)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=read) for _ in range(readers)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(store) == len(warm) + 8 * 10
        assert store.counters() == (readers * rounds * len(warm), 0)
        store.close()

    def test_counters_answer_while_another_thread_queries(self):
        # The daemon snapshots the counters around every job and for
        # /v1/stats; with two job workers one job's bookkeeping must not
        # wait for the other job's lookup.  A progress handler holds a
        # get_many query open until released.
        with ResultStore() as store:
            (key,) = store.put_many([(make_task(), [{"metric": 0.5}])])
            in_query, release = threading.Event(), threading.Event()

            def hold():
                in_query.set()
                release.wait(timeout=30)
                return 0

            store._connection.set_progress_handler(hold, 1)
            lookup = threading.Thread(target=store.get_many, args=([key],))
            snapshots = []
            snapshot = threading.Thread(
                target=lambda: snapshots.append(store.counters())
            )
            lookup.start()
            try:
                assert in_query.wait(timeout=10)
                snapshot.start()
                snapshot.join(timeout=1)
                answered = not snapshot.is_alive()
            finally:
                release.set()
                lookup.join(timeout=30)
                snapshot.join(timeout=30)
            store._connection.set_progress_handler(None, 1)
            assert answered
            assert not lookup.is_alive()
            assert snapshots == [(0, 0)]
            assert store.counters() == (1, 0)

    def test_counter_snapshots_stay_whole_under_contention(self):
        # Each lookup counts one hit and one miss, so every atomic snapshot
        # reads hits == misses; a torn snapshot or a lost update breaks it.
        with ResultStore() as store:
            keys = store.put_many([(make_task(), [{"metric": 0.5}])]) + ["absent"]
            lookers, rounds = 8, 200
            torn = []
            done = threading.Event()

            def look():
                for _ in range(rounds):
                    store.get_many(keys)

            def watch():
                while not done.is_set():
                    hits, misses = store.counters()
                    if hits != misses:
                        torn.append((hits, misses))

            threads = [threading.Thread(target=look) for _ in range(lookers)]
            watcher = threading.Thread(target=watch)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                watcher.start()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                done.set()
                watcher.join(timeout=60)
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in [*threads, watcher])
            assert torn == []
            assert store.counters() == (lookers * rounds, lookers * rounds)

    def test_close_is_idempotent_and_marks_closed(self):
        store = ResultStore()
        assert not store.closed
        store.close()
        store.close()  # second close must not raise
        assert store.closed
        with pytest.raises(RuntimeError, match="closed"):
            store.get_many(["anything"])

    def test_insert_names_its_columns(self, tmp_path):
        # A new column appended to the schema must not shift the insert's
        # values: named columns keep old writers valid against the wider
        # table.
        path = tmp_path / "wider.sqlite"
        with ResultStore(path) as store:
            store._connection.execute(
                "ALTER TABLE results ADD COLUMN annotation TEXT"
            )
            task = make_task()
            metrics = [{"metric": 1.0}, {"metric": 2.0}]
            (key,) = store.put_many([(task, metrics)])
            assert store.get_many([key]) == {key: metrics}


# Awkward floats: accumulated rounding, thirds, pi, a denormal, negative
# zero — they must come back with the same bits, not merely close.
AWKWARD = [0.1 + 0.2, 1.0 / 3.0, float(np.pi), 5e-324, -0.0]


def float_bits(metrics):
    return [
        np.float64(value).tobytes() for row in metrics for value in row.values()
    ]


class TestRoundTrip:
    def test_floats_round_trip_bit_identically_after_reopen(self, tmp_path):
        path = tmp_path / "bits.sqlite"
        metrics = [{"value": value} for value in AWKWARD]
        with ResultStore(path) as store:
            (key,) = store.put_many([(make_task(), metrics)])
        with ResultStore(path) as reopened:
            got = reopened.get_many([key])[key]
        # == would also pass for -0.0 vs 0.0; require the same bits.
        assert float_bits(got) == float_bits(metrics)

    def test_non_float_metric_values_keep_their_types(self, tmp_path):
        path = tmp_path / "types.sqlite"
        metrics = [{"count": 3, "label": "ok", "flag": True, "missing": None}]
        with ResultStore(path) as store:
            (key,) = store.put_many([(make_task(), metrics)])
        with ResultStore(path) as reopened:
            got = reopened.get_many([key])[key]
        assert got == metrics
        assert type(got[0]["count"]) is int
        assert type(got[0]["flag"]) is bool

    def test_get_many_counts_like_repeated_gets(self):
        with ResultStore() as store:
            present = store.put_many(
                (make_task(seeds=[seed]), [{"metric": float(seed)}])
                for seed in range(3)
            )
            absent = "0" * 64
            found = store.get_many(present + [absent, present[0], absent])
            assert set(found) == set(present)
            assert found[present[1]] == [{"metric": 1.0}]
            assert store.counters().hits == 4  # 3 first reads + 1 duplicate
            assert store.counters().misses == 2  # the absent key, twice

    def test_get_many_spans_several_query_chunks(self):
        count = store_module._SELECT_CHUNK + 7
        with ResultStore() as store:
            keys = store.put_many(
                (make_task(seeds=[seed]), [{"metric": float(seed)}])
                for seed in range(count)
            )
            found = store.get_many(keys)
        assert [found[key] for key in keys] == [
            [{"metric": float(seed)}] for seed in range(count)
        ]


class TestOpenErrors:
    """A file that is not a usable store is a typed error, not a traceback."""

    def write_text_file(self, path):
        path.write_text("not a database, just some text\n" * 64)
        return path

    def test_non_sqlite_file_raises_store_error_naming_the_path(self, tmp_path):
        path = self.write_text_file(tmp_path / "corrupt.sqlite")
        with pytest.raises(StoreError, match=re.escape(f"result store {path}:")):
            ResultStore(path)

    def test_failed_open_closes_its_connection(self, tmp_path, monkeypatch):
        path = self.write_text_file(tmp_path / "corrupt.sqlite")
        opened = []
        connect = sqlite3.connect

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(store_module.sqlite3, "connect", recording_connect)
        with pytest.raises(StoreError):
            ResultStore(path)
        assert len(opened) == 1
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            opened[0].execute("SELECT 1")

    def test_directory_path_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError, match="cannot open result store"):
            ResultStore(tmp_path)


class TestEarlierStores:
    """Stores written by earlier versions open with no migration step.

    Two layouts exist: the original table without location columns, and the
    segment-spilling layout whose rows could point into
    ``<path>.segments/`` with an empty ``metrics`` column.  Inline rows keep
    serving; segment rows are misses until they are recomputed.
    """

    ORIGINAL_COLUMNS = """
        key TEXT PRIMARY KEY,
        function TEXT NOT NULL,
        name TEXT NOT NULL,
        parameters TEXT NOT NULL,
        seeds TEXT NOT NULL,
        code_version TEXT NOT NULL,
        metrics TEXT NOT NULL,
        created_at TEXT NOT NULL
    """
    SEGMENT_COLUMNS = ORIGINAL_COLUMNS + ", segment TEXT, entry INTEGER"

    def plan(self):
        config = ExperimentConfig(
            name="earlier-store", parameters=dict(BASE), replications=2, seed=3
        )
        return ShardPlan.from_configs([config], dynamics_point_replication)

    def write_store(self, path, columns, rows):
        """``rows`` are ``(task, metrics JSON, segment, entry)`` tuples."""
        connection = sqlite3.connect(str(path))
        connection.execute(f"CREATE TABLE results ({columns})")
        for task, metrics_json, segment, entry in rows:
            values = [
                task_key(task),
                task.function_ref,
                task.name,
                canonical_json(task.parameters),
                json.dumps(list(task.seeds)),
                __version__,
                metrics_json,
                "2026-01-01T00:00:00+00:00",
            ]
            if "segment" in columns:
                values += [segment, entry]
            placeholders = ",".join("?" * len(values))
            connection.execute(f"INSERT INTO results VALUES ({placeholders})", values)
        connection.commit()
        connection.close()

    def test_original_layout_serves_inline_rows_bit_identically(self, tmp_path):
        path = tmp_path / "original.sqlite"
        task = self.plan().tasks[0]
        metrics = [{"value": value} for value in AWKWARD]
        self.write_store(
            path, self.ORIGINAL_COLUMNS, [(task, json.dumps(metrics), None, None)]
        )
        with ResultStore(path) as store:
            key = store.key_for(task)
            got = store.get_many([key])[key]
            assert float_bits(got) == float_bits(metrics)
            assert store.counters().hits == 1
            (other,) = store.put_many([(self.plan().tasks[1], [{"metric": 1.0}])])
        with ResultStore(path) as reopened:
            assert len(reopened) == 2
            assert reopened.get_many([other]) == {other: [{"metric": 1.0}]}

    def test_segment_layout_recomputes_segment_rows_once(self, tmp_path):
        path = tmp_path / "segmented.sqlite"
        plan = self.plan()
        inline_task, segment_task = plan.tasks
        inline_metrics = execute_task(inline_task, dynamics_point_replication)
        self.write_store(
            path,
            self.SEGMENT_COLUMNS,
            [
                (inline_task, json.dumps(inline_metrics), None, None),
                (segment_task, "", "seg-0123456789ab.npz", 0),
            ],
        )
        segments = tmp_path / "segmented.sqlite.segments"
        segments.mkdir()
        np.savez(segments / "seg-0123456789ab.npz", values=np.zeros((1, 1)))
        calls = []

        def counting(seed, parameters):
            calls.append(seed)
            return dynamics_point_replication(seed, parameters)

        with ResultStore(path) as store:
            inline_key, segment_key = (store.key_for(task) for task in plan.tasks)
            got = store.get_many([inline_key])[inline_key]
            assert float_bits(got) == float_bits(inline_metrics)
            assert store.get_many([segment_key]) == {}
            assert segment_key not in store
            assert len(store) == 1
            assert store.counters() == (1, 1)

            cold = run_plan(plan, counting, store=store)
            assert calls == list(segment_task.seeds)  # only the segment row
            assert cold == run_plan(plan, dynamics_point_replication)
            assert len(store) == 2

            warm = run_plan(plan, counting, store=store)
            assert len(calls) == 1  # both rows hit now
            assert warm == cold
            assert store.counters() == (4, 2)
        connection = sqlite3.connect(str(path))
        segment, entry = connection.execute(
            "SELECT segment, entry FROM results WHERE key = ?", (segment_key,)
        ).fetchone()
        connection.close()
        assert (segment, entry) == (None, None)
