"""API v1 surface: error envelopes, version routing, campaigns.

Complements ``test_daemon.py`` (which exercises the happy paths through the
client) with raw-HTTP assertions about the v1 contract: the one error
envelope, 404s for unversioned paths and unknown version prefixes, and
campaign submissions riding the same job lifecycle.
"""

from __future__ import annotations

import json
import time
from urllib import error as urllib_error
from urllib import request as urllib_request

import pytest

from repro.runtime import ResultStore
from repro.service import ServiceClient, ServiceError, start_daemon

SWEEP_PAYLOAD = {
    "kind": "sweep",
    "options": [0.8, 0.5],
    "populations": [60],
    "horizon": 8,
    "replications": 2,
    "engine": "loop",
}

CAMPAIGN_SPEC = {
    "name": "api-demo",
    "nodes": [
        {"id": "sim", "kind": "simulate", "request": dict(SWEEP_PAYLOAD)},
        {"id": "stats", "kind": "analyse", "inputs": ["sim"]},
        {"id": "summary", "kind": "report", "inputs": ["stats"]},
    ],
}


@pytest.fixture()
def daemon(tmp_path):
    store = ResultStore(tmp_path / "api.sqlite")
    with start_daemon(store=store) as handle:
        yield handle
    store.close()


@pytest.fixture()
def client(daemon):
    return ServiceClient(daemon.url)


def raw(daemon, path, body=None):
    """One raw HTTP call; returns (status, headers, decoded JSON body)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib_request.Request(
        f"{daemon.url}{path}",
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib_request.urlopen(request, timeout=30.0) as response:
            return response.status, dict(response.headers), json.loads(
                response.read().decode("utf-8")
            )
    except urllib_error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(
            error.read().decode("utf-8")
        )


class TestErrorEnvelope:
    def test_malformed_job_is_a_400_invalid_request(self, daemon):
        status, _, body = raw(daemon, "/v1/jobs", {"kind": "nope"})
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "unknown request kind" in body["error"]["message"]

    def test_job_missing_required_fields_is_a_400_not_a_500(self, daemon):
        status, _, body = raw(daemon, "/v1/jobs", {"kind": "sweep"})
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_malformed_campaign_is_a_400_invalid_campaign(self, daemon):
        status, _, body = raw(
            daemon, "/v1/campaigns", {"name": "x", "nodes": [{"id": "a"}]}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_campaign"
        assert "kind" in body["error"]["message"]

    def test_campaign_with_unknown_input_is_rejected(self, daemon):
        spec = {
            "name": "x",
            "nodes": [
                {"id": "a", "kind": "analyse", "inputs": ["ghost"]},
            ],
        }
        status, _, body = raw(daemon, "/v1/campaigns", spec)
        assert status == 400
        assert body["error"]["code"] == "invalid_campaign"
        assert "ghost" in body["error"]["message"]

    def test_unknown_job_is_a_404_envelope(self, daemon):
        status, _, body = raw(daemon, "/v1/jobs/job-999")
        assert status == 404
        assert body["error"] == {
            "code": "unknown_job",
            "message": "unknown job 'job-999'",
        }

    def test_unknown_path_is_a_404_envelope(self, daemon):
        status, _, body = raw(daemon, "/v1/nonsense")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_failed_job_result_carries_envelope_and_snapshot(self, daemon, client):
        # A campaign whose analyse node names a missing metric fails at
        # execution time (validation passes: the spec itself is legal).
        spec = json.loads(json.dumps(CAMPAIGN_SPEC))
        spec["nodes"][1]["metrics"] = ["no_such_metric"]
        status, _, body = raw(daemon, "/v1/campaigns", spec)
        assert status == 202
        job_id = body["job_id"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if client.status(job_id)["status"] == "error":
                break
            time.sleep(0.05)
        status, _, body = raw(daemon, f"/v1/jobs/{job_id}/result")
        assert status == 500
        assert body["error"]["code"] == "job_failed"
        assert "no_such_metric" in body["error"]["message"]
        assert body["job"]["status"] == "error"

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"engine": "vectorized"}, "expected one of loop, batched"),
            ({"backend": "numpy"}, "unknown network request fields ['backend']"),
        ],
    )
    def test_removed_engine_and_backend_are_a_400(self, daemon, field, message):
        payload = {
            "kind": "network",
            "options": [0.8, 0.5],
            "topology": "ring",
            "size": 20,
            **field,
        }
        status, _, body = raw(daemon, "/v1/jobs", payload)
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert message in body["error"]["message"]

    def test_client_surfaces_the_envelope_message(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "nope"})
        assert excinfo.value.status == 400
        assert "unknown request kind" in str(excinfo.value)


class TestVersionRouting:
    def test_unknown_version_prefix_is_a_404(self, daemon):
        status, _, body = raw(daemon, "/v2/healthz")
        assert status == 404
        assert body["error"]["code"] == "unknown_version"
        assert "/v1" in body["error"]["message"]

    def test_unknown_version_on_post_too(self, daemon):
        status, _, body = raw(daemon, "/v9/jobs", SWEEP_PAYLOAD)
        assert status == 404
        assert body["error"]["code"] == "unknown_version"

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/healthz", None),
            ("/stats", None),
            ("/jobs", SWEEP_PAYLOAD),
            ("/jobs", {"kind": "nope"}),
        ],
        ids=["healthz", "stats", "submit", "invalid-submit"],
    )
    def test_unversioned_paths_are_404_not_found(self, daemon, path, body):
        status, headers, payload = raw(daemon, path, body)
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "Deprecation" not in headers

    def test_client_targets_v1(self, client, daemon):
        # The client helper must reach the canonical surface, not an alias.
        gated = daemon  # client fixtures share the daemon
        assert client.healthz()["status"] == "ok"
        status, headers, _ = raw(gated, "/v1/healthz")
        assert status == 200
        assert "Deprecation" not in headers


class TestCampaignJobs:
    def test_campaign_runs_through_the_job_queue(self, daemon, client):
        submitted = client.submit_campaign(CAMPAIGN_SPEC)
        assert submitted["status"] in ("queued", "running", "done")
        result = client.wait(submitted["job_id"], timeout=120.0)
        assert result["kind"] == "campaign"
        nodes = result["rows"]
        assert [node["id"] for node in nodes] == ["sim", "stats", "summary"]
        assert [node["kind"] for node in nodes] == [
            "simulate",
            "analyse",
            "report",
        ]
        assert nodes[2]["text"].startswith("Report summary")

    def test_identical_inflight_campaigns_deduplicate(self, daemon, client):
        first = client.submit_campaign(CAMPAIGN_SPEC)
        second = client.submit_campaign(CAMPAIGN_SPEC)
        if second["attached"]:  # raced completion is legal, attach is typical
            assert second["job_id"] == first["job_id"]
        client.wait(first["job_id"], timeout=120.0)

    def test_campaign_and_direct_job_share_the_store(self, daemon, client):
        # The campaign's simulate node and a direct /v1/jobs submission of
        # the same request hit the same content addresses.
        campaign_job = client.submit_campaign(CAMPAIGN_SPEC)
        client.wait(campaign_job["job_id"], timeout=120.0)
        direct = client.submit(SWEEP_PAYLOAD)
        result = client.wait(direct["job_id"], timeout=120.0)
        status = client.status(direct["job_id"])
        assert status["cache_misses"] == 0  # fully warm
        campaign_rows = client.result(campaign_job["job_id"])["rows"][0]["rows"]
        assert result["rows"] == campaign_rows


class TestWaitBackoff:
    def test_backoff_doubles_to_the_cap(self, monkeypatch):
        client = ServiceClient("http://example.invalid")
        states = iter(["queued"] * 6 + ["done"])
        monkeypatch.setattr(
            client, "status", lambda job_id: {"status": next(states)}
        )
        monkeypatch.setattr(client, "result", lambda job_id: {"rows": []})
        sleeps = []
        clock = {"now": 0.0}

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        monkeypatch.setattr("repro.service.client.time.sleep", fake_sleep)
        monkeypatch.setattr(
            "repro.service.client.time.monotonic", lambda: clock["now"]
        )
        assert client.wait("job-1", timeout=120.0) == {"rows": []}
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0]

    def test_last_sleep_is_clamped_to_the_deadline(self, monkeypatch):
        client = ServiceClient("http://example.invalid")
        monkeypatch.setattr(client, "status", lambda job_id: {"status": "queued"})
        sleeps = []
        clock = {"now": 0.0}

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        monkeypatch.setattr("repro.service.client.time.sleep", fake_sleep)
        monkeypatch.setattr(
            "repro.service.client.time.monotonic", lambda: clock["now"]
        )
        with pytest.raises(ServiceError, match="still queued"):
            client.wait("job-1", timeout=1.0)
        assert sum(sleeps) <= 1.0 + 1e-9
        assert sleeps[-1] < 1.0  # clamped, not a full max interval

    def test_zero_poll_interval_does_not_busy_loop(self, monkeypatch):
        client = ServiceClient("http://example.invalid")
        states = iter(["queued"] * 3 + ["done"])
        monkeypatch.setattr(
            client, "status", lambda job_id: {"status": next(states)}
        )
        monkeypatch.setattr(client, "result", lambda job_id: {"rows": []})
        sleeps = []
        clock = {"now": 0.0}

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += max(seconds, 1e-6)

        monkeypatch.setattr("repro.service.client.time.sleep", fake_sleep)
        monkeypatch.setattr(
            "repro.service.client.time.monotonic", lambda: clock["now"]
        )
        client.wait("job-1", timeout=10.0, poll_interval=0.0)
        # After the first zero sleep the interval grows from the 1 ms floor.
        assert sleeps[0] == 0.0
        assert all(s > 0 for s in sleeps[1:])

    def test_a_slow_job_costs_few_polls(self, daemon, client):
        # Timed regression: a ~0.6 s job must cost a handful of status
        # polls, not the ~12 a fixed 50 ms interval would issue.
        service = daemon.service
        inner = service.queue._execute
        release = time.monotonic() + 0.6

        def slow_execute(request):
            while time.monotonic() < release:
                time.sleep(0.01)
            return inner(request)

        service.queue._execute = slow_execute
        polls = {"count": 0}
        real_status = client.status

        def counting_status(job_id):
            polls["count"] += 1
            return real_status(job_id)

        client.status = counting_status
        submitted = client.submit(SWEEP_PAYLOAD)
        client.wait(submitted["job_id"], timeout=60.0)
        # Exponential backoff: 0.05+0.1+0.2+0.4 > 0.6s in 5 polls; allow
        # slack for scheduling jitter but far below the fixed-interval count.
        assert polls["count"] <= 8
