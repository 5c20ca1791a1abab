"""Daemon observability endpoints: /v1/metrics and /v1/jobs/<id>/trace.

The acceptance contract: the store counters in ``/v1/metrics`` are bridged
from the very same ``store.counters()`` snapshot ``/v1/stats`` serves, so
the two endpoints can never disagree about cache behaviour; every job's
spans are queryable by job id and join the snapshot's ``trace_id``.
"""

from __future__ import annotations

import json
from urllib import request as urllib_request

import pytest

from repro.obs import validate_record
from repro.runtime import ResultStore
from repro.service import ServiceClient, ServiceError, start_daemon, sweep_request

SWEEP_KWARGS = dict(
    options=[0.8, 0.5],
    populations=[60],
    horizon=8,
    replications=2,
    engine="loop",
)

STORE_COUNTERS = ("hits", "misses")
STORE_GAUGES = ("rows",)


@pytest.fixture()
def daemon(tmp_path):
    store = ResultStore(tmp_path / "service.sqlite")
    with start_daemon(store=store) as handle:
        yield handle
    store.close()


@pytest.fixture()
def client(daemon):
    return ServiceClient(daemon.url)


def parse_samples(text):
    """Prometheus text -> {sample name: value} for unlabelled samples."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if "{" not in name:
            samples[name] = float(value)
    return samples


class TestMetricsEndpoint:
    def test_metrics_store_counters_exactly_match_stats(self, client):
        # Warm the store through one cold and one cached job first so the
        # counters are non-trivial.
        client.run(sweep_request(**SWEEP_KWARGS))
        client.run(sweep_request(**SWEEP_KWARGS))
        stats = client.stats()["store"]
        samples = parse_samples(client.metrics())
        assert stats["hits"] > 0  # the second run was served from cache
        for counter in STORE_COUNTERS:
            assert samples[f"repro_store_{counter}_total"] == stats[counter], counter
        for gauge in STORE_GAUGES:
            assert samples[f"repro_store_{gauge}"] == stats[gauge], gauge
        exported = {name for name in samples if name.startswith("repro_store_")}
        assert exported == {
            "repro_store_hits_total",
            "repro_store_misses_total",
            "repro_store_rows",
        }

    def test_metrics_content_type_is_prometheus_text(self, daemon, client):
        client.run(sweep_request(**SWEEP_KWARGS))
        with urllib_request.urlopen(f"{daemon.url}/v1/metrics", timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            body = resp.read().decode("utf-8")
        assert "# TYPE repro_job_queue_wait_seconds histogram" in body
        assert body.endswith("\n")

    def test_queue_wait_histogram_counts_every_job(self, client):
        client.run(sweep_request(**SWEEP_KWARGS))
        samples = parse_samples(client.metrics())
        assert samples["repro_job_queue_wait_seconds_count"] >= 1
        queue = client.stats()["queue"]
        assert queue["queue_wait_p50_ms"] is not None
        assert queue["queue_wait_p99_ms"] >= queue["queue_wait_p50_ms"]

    def test_queue_wait_quantiles_none_before_any_job(self, client):
        queue = client.stats()["queue"]
        assert queue["queue_wait_p50_ms"] is None
        assert queue["queue_wait_p99_ms"] is None


class TestJobTraceEndpoint:
    def test_job_spans_are_queryable_by_job_id(self, client):
        submitted = client.submit(sweep_request(**SWEEP_KWARGS))
        client.wait(submitted["job_id"])
        status = client.status(submitted["job_id"])
        trace = client.trace(submitted["job_id"])
        assert trace["job_id"] == submitted["job_id"]
        assert trace["trace_id"] == status["trace_id"]
        assert trace["truncated"] is False
        names = {record["name"] for record in trace["records"]}
        assert {"job", "run_plan", "shard"} <= names
        for record in trace["records"]:
            assert validate_record(record) == []
            assert record["trace"] == trace["trace_id"]

    def test_job_snapshot_reports_monotonic_durations(self, client):
        submitted = client.submit(sweep_request(**SWEEP_KWARGS))
        client.wait(submitted["job_id"])
        status = client.status(submitted["job_id"])
        assert status["queue_wait_s"] >= 0.0
        assert status["run_s"] > 0.0
        assert status["total_s"] >= status["run_s"]
        assert len(status["trace_id"]) == 32

    def test_identical_jobs_share_one_trace_id(self, client):
        first = client.submit(sweep_request(**SWEEP_KWARGS))
        client.wait(first["job_id"])
        second = client.submit(sweep_request(**SWEEP_KWARGS))
        client.wait(second["job_id"])
        assert (
            client.status(first["job_id"])["trace_id"]
            == client.status(second["job_id"])["trace_id"]
        )

    def test_campaign_jobs_record_node_spans(self, client):
        spec = {
            "name": "traced-api",
            "nodes": [
                {
                    "id": "sim",
                    "kind": "simulate",
                    "request": {"kind": "sweep", **SWEEP_KWARGS},
                },
                {"id": "stats", "kind": "analyse", "inputs": ["sim"]},
            ],
        }
        submitted = client.submit_campaign(spec)
        client.wait(submitted["job_id"])
        trace = client.trace(submitted["job_id"])
        names = {record["name"] for record in trace["records"]}
        assert {"job", "campaign", "campaign_node", "shard"} <= names

    def test_unknown_job_trace_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.trace("not-a-job")
        assert excinfo.value.status == 404


class TestTraceOut:
    def test_trace_out_tees_spans_to_jsonl(self, tmp_path):
        path = tmp_path / "daemon-trace.jsonl"
        with start_daemon(trace_out=str(path)) as handle:
            client = ServiceClient(handle.url)
            submitted = client.submit(sweep_request(**SWEEP_KWARGS))
            client.wait(submitted["job_id"])
            buffered = client.trace(submitted["job_id"])["records"]
        records = [
            json.loads(line) for line in path.read_text().splitlines() if line
        ]
        assert records  # the file saw the same spans the memory sink did
        for record in records:
            assert validate_record(record) == []
        assert {r["span"] for r in records} == {r["span"] for r in buffered}
