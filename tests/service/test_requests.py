"""Tests for the shared request layer (repro.service.requests)."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig, run_replications, run_sweep
from repro.service.requests import (
    PROTOCOL,
    SWEEP,
    RequestError,
    execute_request,
    network_request,
    prepare_request,
    protocol_request,
    request_from_dict,
    sweep_request,
)

SWEEP_KWARGS = dict(
    options=[0.8, 0.5],
    populations=[60],
    horizon=8,
    replications=2,
    engine="loop",
)


class TestBuilderValidation:
    def test_sweep_request_normalises_numbers(self):
        request = sweep_request(
            options=(0.8, 0.5), populations=(60,), horizon=8, replications=2
        )
        assert request.kind == SWEEP
        assert request.spec["options"] == [0.8, 0.5]
        assert request.spec["populations"] == [60]
        assert request.engine == "batched"

    @pytest.mark.parametrize("bad", [[], "0.8", None])
    def test_sweep_rejects_bad_options(self, bad):
        with pytest.raises(RequestError, match="'options'"):
            sweep_request(options=bad, populations=[60])

    def test_sweep_rejects_unknown_engine(self):
        with pytest.raises(RequestError, match="unknown engine"):
            sweep_request(options=[0.8, 0.5], populations=[60], engine="gpu")

    @pytest.mark.parametrize(
        "field, value",
        [("horizon", 0), ("replications", -1), ("seed", -1), ("size", 0)],
    )
    def test_network_rejects_nonpositive_fields(self, field, value):
        kwargs = dict(
            options=[0.8, 0.5], topology="ring", size=60, replications=2
        )
        kwargs[field] = value
        with pytest.raises(RequestError, match=f"'{field}'"):
            network_request(**kwargs)

    def test_protocol_delay_requires_loop_engine(self):
        with pytest.raises(RequestError, match="loop engine"):
            protocol_request(options=[0.8, 0.5], nodes=40, delay=0.1, engine="batched")
        request = protocol_request(
            options=[0.8, 0.5], nodes=40, delay=0.1, engine="loop"
        )
        assert request.kind == PROTOCOL
        assert request.spec["delay"] == 0.1

    def test_protocol_mass_crash_round_defaults_to_half(self):
        request = protocol_request(
            options=[0.8, 0.5], nodes=40, rounds=30, mass_crash_fraction=0.4
        )
        assert request.spec["mass_crash_round"] == 15
        explicit = protocol_request(
            options=[0.8, 0.5],
            nodes=40,
            rounds=30,
            mass_crash_fraction=0.4,
            mass_crash_round=7,
        )
        assert explicit.spec["mass_crash_round"] == 7


class TestNonFiniteValidation:
    """Non-finite numbers are rejected at the request boundary (HTTP 400).

    ``json.loads`` accepts the non-standard ``Infinity``/``NaN`` tokens, so
    without this check a client typo would surface as a 500 deep inside
    cache-key derivation instead of a clear validation error here.
    """

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_sweep_rejects_non_finite_beta(self, bad):
        with pytest.raises(RequestError, match="'beta' must be finite"):
            sweep_request(options=[0.8, 0.5], populations=[60], beta=bad)

    def test_sweep_rejects_non_finite_options(self):
        with pytest.raises(RequestError, match="finite"):
            sweep_request(options=[0.8, float("nan")], populations=[60])

    def test_network_rejects_non_finite_mu(self):
        with pytest.raises(RequestError, match="'mu' must be finite"):
            network_request(
                options=[0.8, 0.5], topology="ring", size=60, mu=float("inf")
            )

    @pytest.mark.parametrize(
        "field", ["loss", "delay", "crash", "mass_crash_fraction"]
    )
    def test_protocol_rejects_non_finite_rates(self, field):
        kwargs = dict(options=[0.8, 0.5], nodes=30, engine="loop")
        kwargs[field] = float("nan")
        with pytest.raises(RequestError, match=f"'{field}' must be finite"):
            protocol_request(**kwargs)

    def test_request_from_dict_rejects_non_finite_payload(self):
        # What json.loads('{"beta": Infinity}') hands the daemon.
        payload = {
            "kind": SWEEP,
            "options": [0.8, 0.5],
            "populations": [60],
            "beta": float("inf"),
        }
        with pytest.raises(RequestError, match="finite"):
            request_from_dict(payload)


class TestContentAddress:
    def test_key_is_stable_across_equivalent_spellings(self):
        via_list = sweep_request(**SWEEP_KWARGS)
        via_tuple = sweep_request(
            options=(0.8, 0.5), populations=(60,), horizon=8,
            replications=2, engine="loop",
        )
        assert via_list.key() == via_tuple.key()

    def test_key_distinguishes_different_workloads(self):
        base = sweep_request(**SWEEP_KWARGS)
        reseeded = sweep_request(**{**SWEEP_KWARGS, "seed": 1})
        assert base.key() != reseeded.key()

    def test_round_trip_through_dict_preserves_the_key(self):
        request = protocol_request(
            options=[0.9, 0.6], nodes=40, rounds=10, loss=0.2, replications=2
        )
        rebuilt = request_from_dict(request.to_dict())
        assert rebuilt == request
        assert rebuilt.key() == request.key()


class TestRequestFromDict:
    def test_rejects_unknown_kind(self):
        with pytest.raises(RequestError, match="unknown request kind"):
            request_from_dict({"kind": "montecarlo"})

    def test_rejects_unknown_fields(self):
        payload = sweep_request(**SWEEP_KWARGS).to_dict()
        payload["replciations"] = 100
        with pytest.raises(RequestError, match="replciations"):
            request_from_dict(payload)

    def test_rejects_non_object_payload(self):
        with pytest.raises(RequestError):
            request_from_dict(["sweep"])


class TestExecuteRequest:
    def test_sweep_matches_direct_run_sweep(self):
        request = sweep_request(**SWEEP_KWARGS)
        result = execute_request(request)
        prepared = prepare_request(request)
        _, table = run_sweep(
            prepared.name,
            prepared.grid,
            prepared.replication,
            replications=prepared.replications,
            seed=prepared.seed,
            base_parameters=prepared.base_parameters,
        )
        assert result.rows == [dict(row) for row in table.rows]
        assert "engine=loop" in result.description

    def test_network_matches_direct_run_replications(self):
        request = network_request(
            options=[0.8, 0.5], topology="ring", size=60,
            horizon=8, replications=2, engine="loop",
        )
        result = execute_request(request)
        prepared = prepare_request(request)
        direct = run_replications(prepared.config, prepared.replication)
        summaries = {
            name: direct.summarize(name).as_dict()
            for name in direct.metric_names()
        }
        assert len(result.rows) == len(summaries)
        for row in result.rows:
            metric = row.pop("metric")
            assert row == summaries[metric]

    def test_prepared_request_names_the_engine(self):
        prepared = prepare_request(
            protocol_request(options=[0.8, 0.5], nodes=40, rounds=10, replications=2)
        )
        assert prepared.name == "protocol-batched"
        assert isinstance(prepared.config, ExperimentConfig)
        assert prepared.config.parameters["N"] == 40


class TestEngineOptionFields:
    """backend/dtype participate in the spec — and hence the content address."""

    def _sweep(self, **overrides):
        kwargs = dict(
            options=[0.8, 0.5], populations=[60], horizon=8, replications=2
        )
        kwargs.update(overrides)
        return sweep_request(**kwargs)

    def test_explicit_defaults_normalise_out_of_the_spec(self):
        implicit = self._sweep()
        explicit = self._sweep(backend="numpy", dtype="float64")
        assert "backend" not in explicit.spec
        assert "dtype" not in explicit.spec
        assert explicit.key() == implicit.key()

    def test_float32_gets_its_own_content_address(self):
        default = self._sweep()
        narrow = self._sweep(dtype="float32")
        assert narrow.spec["dtype"] == "float32"
        assert narrow.key() != default.key()

    def test_unknown_backend_and_dtype_rejected(self):
        with pytest.raises(RequestError, match="unknown backend"):
            self._sweep(backend="metal")
        with pytest.raises(RequestError, match="unknown dtype"):
            self._sweep(dtype="float16")

    def test_overrides_require_the_batched_engine(self):
        with pytest.raises(RequestError, match="batched engine"):
            self._sweep(engine="loop", dtype="float32")
        with pytest.raises(RequestError, match="batched engine"):
            protocol_request(
                options=[0.8, 0.5], nodes=40, engine="vectorized", dtype="float32"
            )

    def test_round_trip_preserves_the_options_and_key(self):
        request = network_request(
            options=[0.8, 0.5], topology="ring", size=60,
            horizon=8, replications=2, dtype="float32",
        )
        rebuilt = request_from_dict(request.to_dict())
        assert rebuilt == request
        assert rebuilt.spec["dtype"] == "float32"
        assert rebuilt.key() == request.key()

    def test_prepare_threads_dtype_into_the_parameters(self):
        sweep = prepare_request(self._sweep(dtype="float32"))
        assert sweep.base_parameters["dtype"] == "float32"
        network = prepare_request(
            network_request(
                options=[0.8, 0.5], topology="ring", size=60,
                replications=2, dtype="float32",
            )
        )
        assert network.config.parameters["dtype"] == "float32"
        protocol = prepare_request(
            protocol_request(
                options=[0.8, 0.5], nodes=40, rounds=8,
                replications=2, dtype="float32",
            )
        )
        assert protocol.config.parameters["dtype"] == "float32"

    def test_float32_sweep_executes_and_matches_direct_run(self):
        request = self._sweep(dtype="float32")
        result = execute_request(request)
        prepared = prepare_request(request)
        _, table = run_sweep(
            prepared.name,
            prepared.grid,
            prepared.replication,
            replications=prepared.replications,
            seed=prepared.seed,
            base_parameters=prepared.base_parameters,
        )
        assert result.rows == [dict(row) for row in table.rows]
