"""Golden-trajectory regression tests: engines must reproduce committed runs bit-for-bit.

The statistical equivalence suite (`test_cross_validation.py`) catches
*distributional* drift; these tests catch *any* drift.  Each committed JSON
under ``tests/fixtures/golden/`` pins one engine's complete output — per-step
counts, observed rewards, per-agent choices — for a fully seeded
configuration, including the per-row-parameterised batched engine that the
sweep-axis batching of this repository relies on.  A refactor that reorders a
single random draw fails here even if the resulting process is statistically
identical.

Fixtures are regenerated (after an *intentional* dynamics change) with::

    PYTHONPATH=src python tests/fixtures/generate_golden.py

NumPy's stream-stability guarantee only holds within a release line, so a
fixture generated under a different ``major.minor`` NumPy skips instead of
failing.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.network import vectorized

FIXTURES_DIR = Path(__file__).parent.parent / "fixtures"
GOLDEN_DIR = FIXTURES_DIR / "golden"


def _load_generator_module():
    spec = importlib.util.spec_from_file_location(
        "generate_golden", FIXTURES_DIR / "generate_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

generate_golden = _load_generator_module()

ENGINES = sorted(generate_golden.GENERATORS)


def _load_fixture(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; regenerate with "
            "`PYTHONPATH=src python tests/fixtures/generate_golden.py`"
        )
    with path.open() as handle:
        return json.load(handle)


def _skip_unless_same_numpy_release(fixture: dict) -> None:
    current = ".".join(np.__version__.split(".")[:2])
    recorded = fixture["numpy_release"]
    if current != recorded:
        pytest.skip(
            f"golden fixture generated under numpy {recorded}, running "
            f"{current}; NumPy only guarantees stream stability within a "
            "release line"
        )


class TestGoldenTrajectories:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_reproduces_committed_trajectory(self, engine):
        fixture = _load_fixture(engine)
        _skip_unless_same_numpy_release(fixture)
        fresh = generate_golden.GENERATORS[engine]()

        assert fresh["config"] == fixture["config"], (
            f"the {engine} golden configuration changed; if intentional, "
            "regenerate the fixtures"
        )
        for field in ("counts", "rewards", "choices", "alive"):
            if field not in fixture:
                continue
            committed = np.asarray(fixture[field])
            regenerated = np.asarray(fresh[field])
            assert regenerated.shape == committed.shape, (
                f"{engine} {field} shape changed: "
                f"{committed.shape} -> {regenerated.shape}"
            )
            mismatches = np.argwhere(regenerated != committed)
            assert mismatches.size == 0, (
                f"{engine} dynamics drifted from the committed golden "
                f"trajectory: first {field} mismatch at index "
                f"{tuple(mismatches[0])} "
                f"(committed {committed[tuple(mismatches[0])]}, "
                f"got {regenerated[tuple(mismatches[0])]}). If this change "
                "is intentional, regenerate with `PYTHONPATH=src python "
                "tests/fixtures/generate_golden.py`"
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fixture_is_internally_consistent(self, engine):
        """Committed fixtures themselves satisfy the engines' invariants."""
        fixture = _load_fixture(engine)
        counts = np.asarray(fixture["counts"])
        rewards = np.asarray(fixture["rewards"])
        assert counts.shape[0] == fixture["config"]["horizon"]
        assert np.all(counts >= 0)
        assert np.all((rewards == 0) | (rewards == 1))
        if engine == "batched":
            sizes = np.asarray(fixture["config"]["population_sizes"])
            assert np.all(counts.sum(axis=2) <= sizes[None, :])
        elif engine == "sequential":
            assert np.all(counts.sum(axis=1) <= fixture["config"]["population_size"])
        elif engine in ("network", "network_vectorized"):
            choices = np.asarray(fixture["choices"])
            size = fixture["config"]["ring_size"]
            assert choices.shape == (fixture["config"]["horizon"], size)
            # counts must be exactly the histogram of committed choices
            for step in range(choices.shape[0]):
                committed = choices[step][choices[step] >= 0]
                histogram = np.bincount(
                    committed, minlength=len(fixture["config"]["qualities"])
                )
                assert np.array_equal(histogram, counts[step])
        elif engine == "network_batched":
            choices = np.asarray(fixture["choices"])
            size = fixture["config"]["ring_size"]
            replicates = fixture["config"]["num_replicates"]
            num_options = len(fixture["config"]["qualities"])
            assert choices.shape == (fixture["config"]["horizon"], replicates, size)
            assert counts.shape == (fixture["config"]["horizon"], replicates, num_options)
            for step in range(choices.shape[0]):
                for replicate in range(replicates):
                    committed = choices[step, replicate][choices[step, replicate] >= 0]
                    histogram = np.bincount(committed, minlength=num_options)
                    assert np.array_equal(histogram, counts[step, replicate])
        elif engine == "protocol_batched":
            choices = np.asarray(fixture["choices"])
            alive = np.asarray(fixture["alive"], dtype=bool)
            num_options = len(fixture["config"]["qualities"])
            assert choices.shape == alive.shape
            # The alive mask only ever shrinks (crash-stop failures).
            assert np.all(alive[1:] <= alive[:-1])
            # Counts must be exactly the alive-committed histogram, per step
            # (and per replicate for the batched fixture).
            flat_choices = choices.reshape(choices.shape[0], -1, choices.shape[-1])
            flat_alive = alive.reshape(flat_choices.shape)
            flat_counts = counts.reshape(counts.shape[0], -1, num_options)
            for step in range(flat_choices.shape[0]):
                for row in range(flat_choices.shape[1]):
                    mask = flat_alive[step, row] & (flat_choices[step, row] >= 0)
                    histogram = np.bincount(
                        flat_choices[step, row][mask], minlength=num_options
                    )
                    assert np.array_equal(histogram, flat_counts[step, row])
            # Message conservation: the batched engine never queues messages
            # across rounds, so every sent message was either delivered or
            # dropped.
            stats = fixture["transport_stats"]
            assert stats["sent"] == stats["delivered"] + stats["dropped"]
            assert stats["delayed"] == 0


# Digests of generate_golden.SERVE_SIZE_RUNS, recorded under numpy 2.4 before
# the batched engines' bookkeeping was reworked: any reordered or reshaped
# random draw at these sizes changes a digest.
SERVE_SIZE_NUMPY_RELEASE = "2.4"
SERVE_SIZE_DIGESTS = {
    "network_batched/float64": (
        "39351dfae57fbe7052ecd325fe582b2d39913bf90bbaa1fd2b801a271ad32a1a"
    ),
    "network_batched/float32": (
        "d54e845c5fa2c06384b32b370d7086f5ecbc498529ceee277cb261393ecee7f4"
    ),
    "protocol_batched/float64": (
        "ce312b56039e1f04b148733ccbd91217a3e68e3c3758ba47866cf2635f4ca5d5"
    ),
    "protocol_batched/float32": (
        "57544a4ffea40fb0b43dc8b1f06ea8b526a636dc81ed50579ead0bf54442683e"
    ),
}


class TestServeSizeDigests:
    """Batched engines at daemon job sizes (N = 3000, R = 8, T = 40)."""

    def test_every_run_is_pinned(self):
        assert set(SERVE_SIZE_DIGESTS) == set(generate_golden.SERVE_SIZE_RUNS)

    @pytest.mark.parametrize("run", sorted(SERVE_SIZE_DIGESTS))
    def test_run_reproduces_pinned_digest(self, run):
        _skip_unless_same_numpy_release({"numpy_release": SERVE_SIZE_NUMPY_RELEASE})
        generate, config = generate_golden.SERVE_SIZE_RUNS[run]
        record = generate(config)
        assert record["numpy_release"] == SERVE_SIZE_NUMPY_RELEASE
        assert generate_golden.record_digest(record) == SERVE_SIZE_DIGESTS[run], (
            f"{run} drifted from its pinned digest; if the change is "
            "intentional, print new digests with `PYTHONPATH=src python "
            "tests/fixtures/generate_golden.py --digests`"
        )


# Digests of generate_golden.SINGLE_REPLICATE_RUNS, recorded under numpy 2.4
# with the single-replicate engines (VectorizedNetworkDynamics and a
# loss-only VectorizedProtocol, environment seed s, engine seed s + 1).  The
# batched engines at R = 1 must reproduce them, so one replicate can still be
# re-run from its own seed.
SINGLE_REPLICATE_NUMPY_RELEASE = "2.4"
SINGLE_REPLICATE_DIGESTS = {
    "network/watts_strogatz": (
        "db45fa16e9d98043c51e24533b2112b424b752f3a3d49c57f051c5c4e337c1ef"
    ),
    "network/ring": (
        "0c51e49941561ac21ff2cff844454cf9b0386de8607af0c6f80bc5e96b3bbdcf"
    ),
    "network/star": (
        "7fa1cc0661d52fc4ed330c69bfeac57b46c1833541ea420653ee67fb18b8bd25"
    ),
    "network/complete": (
        "694a08a9dcc01bf74718c6ff653d9d93ce3dc34cef488a210bd34ce7a8561035"
    ),
    "protocol/loss=0.0": (
        "587fb6dcd25bdaf488a1d91a94b9d2ab798a7af4d6e7bb73edef083fd81036db"
    ),
    "protocol/loss=0.15": (
        "1014660490e5c4c615f36fb954d089ccfa9a058571ddf0318e62ac6fc6da0fbb"
    ),
    "protocol/loss=0.3": (
        "a8d075133d1b011b24426f2de63606593202aba8816bd3d1de6f14b3f3ad5cbe"
    ),
}

NETWORK_SINGLE_REPLICATE_RUNS = sorted(
    run for run in SINGLE_REPLICATE_DIGESTS if run.startswith("network/")
)


class TestSingleReplicateDigests:
    """The per-seed contract: batched engines at R = 1, seeded per replicate."""

    def test_every_run_is_pinned(self):
        assert set(SINGLE_REPLICATE_DIGESTS) == set(
            generate_golden.SINGLE_REPLICATE_RUNS
        )

    @pytest.mark.parametrize("run", sorted(SINGLE_REPLICATE_DIGESTS))
    def test_run_reproduces_pinned_digest(self, run):
        _skip_unless_same_numpy_release(
            {"numpy_release": SINGLE_REPLICATE_NUMPY_RELEASE}
        )
        generate, config = generate_golden.SINGLE_REPLICATE_RUNS[run]
        assert generate_golden.record_digest(generate(config)) == (
            SINGLE_REPLICATE_DIGESTS[run]
        ), f"{run} drifted from the digest of its single-replicate run"

    @pytest.mark.parametrize("run", NETWORK_SINGLE_REPLICATE_RUNS)
    def test_per_agent_walk_reproduces_pinned_digest(
        self, run, monkeypatch, per_agent_stage_one
    ):
        """Stage 1 as the per-agent walk, an implementation of its own."""
        _skip_unless_same_numpy_release(
            {"numpy_release": SINGLE_REPLICATE_NUMPY_RELEASE}
        )
        monkeypatch.setattr(
            vectorized, "committed_neighbor_counts", per_agent_stage_one.neighbor_counts
        )
        monkeypatch.setattr(
            vectorized, "_inverse_cdf_rows", per_agent_stage_one.inverse_cdf_rows
        )
        _, config = generate_golden.SINGLE_REPLICATE_RUNS[run]
        record = generate_golden.network_single_replicate(config)
        assert generate_golden.record_digest(record) == SINGLE_REPLICATE_DIGESTS[run]


# Digest of generate_golden.LOOP_ROWS_RUNS, recorded under numpy 2.4 before
# the loop engine's per-step checks were made cheaper: 3,000 seeded rows of
# dynamics_point_replication at the sizes the daemon replays.
LOOP_ROWS_NUMPY_RELEASE = "2.4"
LOOP_ROWS_DIGESTS = {
    "sweep/loop": (
        "fa99000b23dbbbffb58edfbd9c69a2aaa2c0e918b3bf54f898ca745997ebaa31"
    ),
}


class TestLoopRowsDigest:
    """The per-seed loop engine, row for row, over 30 points x 100 seeds."""

    def test_every_run_is_pinned(self):
        assert set(LOOP_ROWS_DIGESTS) == set(generate_golden.LOOP_ROWS_RUNS)

    @pytest.mark.parametrize("run", sorted(LOOP_ROWS_DIGESTS))
    def test_run_reproduces_pinned_digest(self, run):
        _skip_unless_same_numpy_release({"numpy_release": LOOP_ROWS_NUMPY_RELEASE})
        generate, config = generate_golden.LOOP_ROWS_RUNS[run]
        record = generate(config)
        assert len(record["rows"]) == 3000
        assert generate_golden.record_digest(record) == LOOP_ROWS_DIGESTS[run], (
            f"{run} drifted from its pinned digest; if the change is "
            "intentional, print new digests with `PYTHONPATH=src python "
            "tests/fixtures/generate_golden.py --digests`"
        )
