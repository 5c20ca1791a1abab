"""End-to-end HTTP tests: daemon + client against a live ephemeral-port server.

The acceptance contract from the service issue:

* rows fetched over HTTP are bit-identical to the same sweep run through
  the ``repro sweep`` CLI,
* re-submitting an identical job is served entirely from the result store
  (0 cache misses), and
* two concurrent identical submissions deduplicate onto one computation,
  while a full queue answers 429.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import pytest

import repro
from repro import __version__
from repro.cli import main as cli_main
from repro.experiments import read_csv
from repro.obs.metrics import get_registry
from repro.runtime import ResultStore
from repro.service import (
    JobFailed,
    ServiceClient,
    ServiceError,
    execute_request,
    request_from_dict,
    start_daemon,
    sweep_request,
)
from repro.service.daemon import MAX_REQUEST_BYTES, _ServiceHandler

SWEEP_KWARGS = dict(
    options=[0.8, 0.5],
    populations=[60],
    horizon=8,
    replications=2,
    engine="loop",
)

SWEEP_CLI = [
    "sweep",
    "--options", "0.8", "0.5",
    "--populations", "60",
    "--horizon", "8",
    "--replications", "2",
    "--engine", "loop",
]


@pytest.fixture()
def daemon(tmp_path):
    store = ResultStore(tmp_path / "service.sqlite")
    with start_daemon(store=store) as handle:
        yield handle
    store.close()


@pytest.fixture()
def client(daemon):
    return ServiceClient(daemon.url)


class GatedExecute:
    """Wraps the service execute so tests control when a job finishes."""

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=30.0), "test never released the job"
        return self.inner(request)


def _gate(handle):
    gate = GatedExecute(handle.service.queue._execute)
    handle.service.queue._execute = gate
    return gate


class TestHealthAndStats:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok", "version": __version__}

    def test_kept_connection_answers_without_a_delayed_ack_stall(self, daemon):
        # With Nagle's algorithm on, each response on a reused connection
        # waited out the client's delayed ACK: ~44 ms a call on loopback.
        address = urlsplit(daemon.url)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=10.0
        )
        durations = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                assert json.loads(response.read())["status"] == "ok"
                durations.append(time.perf_counter() - start)
        finally:
            connection.close()
        assert statistics.median(durations) < 0.020

    def test_kept_connection_survives_a_post_rejected_before_its_body(self, daemon):
        # Each of these replies comes before the daemon reads the body; left
        # on the connection, the body was parsed as the next request, which
        # got http.server's HTML 400 or 414 instead of JSON.
        address = urlsplit(daemon.url)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=10.0
        )
        oversized = b"{}" + b" " * MAX_REQUEST_BYTES
        try:
            for path, body, status in (
                ("/v1/nope", b'{"kind": "sweep"}', 404),
                ("/v2/jobs", b'{"kind": "sweep"}', 404),
                ("/v1/jobs", oversized, 400),
            ):
                connection.request(
                    "POST", path, body, {"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                assert response.status == status, path
                assert "error" in json.loads(response.read())
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                assert response.status == 200, path
                assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_a_stalled_body_times_out_and_frees_its_thread(
        self, daemon, monkeypatch, capfd
    ):
        # A POST that declares more body than it sends held its handler
        # thread until the client hung up.  The shipped timeout is seconds
        # long; a fraction of one keeps the test fast.
        timeout = _ServiceHandler.timeout
        assert timeout is not None and 0 < timeout <= 60, timeout
        monkeypatch.setattr(_ServiceHandler, "timeout", 0.3)
        address = urlsplit(daemon.url)
        with socket.create_connection((address.hostname, address.port)) as sock:
            sock.settimeout(5.0)
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
                b'{"kind":'
            )
            start = time.perf_counter()
            assert sock.recv(1024) == b""  # closed without an answer
            assert time.perf_counter() - start < 3.0
        assert ServiceClient(daemon.url).healthz()["status"] == "ok"
        assert "Traceback" not in capfd.readouterr().err

    def test_stats_expose_store_and_queue(self, client):
        stats = client.stats()
        assert stats["version"] == __version__
        assert stats["store"]["attached"]
        assert stats["store"]["rows"] == 0
        assert stats["queue"]["capacity"] == 16
        assert stats["queue"]["completed"] == 0

    def test_stats_expose_exactly_the_store_counters(self, client):
        store_stats = client.stats()["store"]
        assert set(store_stats) == {"attached", "path", "rows", "hits", "misses"}
        assert store_stats["hits"] == store_stats["misses"] == 0

    def test_warm_job_shows_up_in_store_counters(self, client):
        request = sweep_request(**SWEEP_KWARGS)
        client.wait(client.submit(request)["job_id"])
        client.wait(client.submit(request)["job_id"])
        store_stats = client.stats()["store"]
        # The cold job computed and stored its tasks; the warm one replayed
        # them.
        assert store_stats["misses"] == 2
        assert store_stats["hits"] == 2
        assert store_stats["rows"] == 2


class TestEndToEnd:
    def test_http_rows_bit_identical_to_the_cli(self, client, tmp_path):
        target = tmp_path / "cli.csv"
        assert cli_main(SWEEP_CLI + ["--output", str(target)]) == 0
        cli_rows = [dict(row) for row in read_csv(target).rows]

        http_rows = client.run(sweep_request(**SWEEP_KWARGS))

        assert len(http_rows) == len(cli_rows) == 1
        for http_row, cli_row in zip(http_rows, cli_rows):
            assert set(http_row) == set(cli_row)
            for column, cli_value in cli_row.items():
                if column == "qualities":
                    # the CSV keeps the tuple's repr; JSON carries the list
                    assert cli_value == str(tuple(http_row[column]))
                else:
                    assert http_row[column] == cli_value
                    assert type(http_row[column]) is type(cli_value)

    def test_warm_resubmission_is_served_from_cache(self, client):
        request = sweep_request(**SWEEP_KWARGS)
        cold = client.wait(client.submit(request)["job_id"])
        assert cold["cache_misses"] == 2  # one task per (point, seed)
        assert cold["cache_hits"] == 0

        warm = client.wait(client.submit(request)["job_id"])
        assert warm["cache_misses"] == 0
        assert warm["cache_hits"] == 2
        assert warm["rows"] == cold["rows"]
        assert warm["id"] != cold["id"]  # a new job, served by the store

        stats = client.stats()
        assert stats["store"]["rows"] == 2
        assert stats["queue"]["completed"] == 2

    def test_concurrent_identical_submissions_share_one_computation(
        self, daemon, client
    ):
        gate = _gate(daemon)
        request = sweep_request(**SWEEP_KWARGS)

        first = client.submit(request)
        assert gate.started.wait(timeout=30.0)
        second = client.submit(request)

        assert first["attached"] is False
        assert second["attached"] is True
        assert second["job_id"] == first["job_id"]

        gate.release.set()
        result = client.wait(first["job_id"])
        assert gate.calls == 1
        assert result["subscribers"] == 2
        assert client.stats()["queue"]["deduplicated"] == 1


class TestBackPressure:
    def test_full_queue_returns_429(self, tmp_path):
        with start_daemon(job_workers=1, queue_capacity=1) as handle:
            gate = _gate(handle)
            client = ServiceClient(handle.url)

            blocker = client.submit(sweep_request(**{**SWEEP_KWARGS, "seed": 1}))
            assert gate.started.wait(timeout=30.0)
            queued = client.submit(sweep_request(**{**SWEEP_KWARGS, "seed": 2}))

            with pytest.raises(ServiceError) as excinfo:
                client.submit(sweep_request(**{**SWEEP_KWARGS, "seed": 3}))
            assert excinfo.value.status == 429
            assert "capacity" in str(excinfo.value)

            gate.release.set()
            client.wait(blocker["job_id"])
            client.wait(queued["job_id"])


class TestErrorSurface:
    def test_malformed_request_is_a_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "montecarlo"})
        assert excinfo.value.status == 400
        assert "unknown request kind" in str(excinfo.value)

    def test_unknown_field_is_a_400(self, client):
        payload = sweep_request(**SWEEP_KWARGS).to_dict()
        payload["replciations"] = 100
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert "replciations" in str(excinfo.value)

    def test_unknown_job_and_path_are_404(self, client):
        for call in (
            lambda: client.status("job-999"),
            lambda: client.result("job-999"),
            lambda: client._call("/nope"),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_pending_result_is_a_202(self, daemon, client):
        gate = _gate(daemon)
        submitted = client.submit(sweep_request(**SWEEP_KWARGS))
        assert gate.started.wait(timeout=30.0)
        with pytest.raises(ServiceError) as excinfo:
            client.result(submitted["job_id"])
        assert excinfo.value.status == 202
        gate.release.set()
        client.wait(submitted["job_id"])

    def test_failed_job_reports_500(self, daemon, client):
        def explode(request):
            raise RuntimeError("engine blew up")

        daemon.service.queue._execute = explode
        submitted = client.submit(sweep_request(**SWEEP_KWARGS))
        with pytest.raises(JobFailed, match="engine blew up"):
            client.wait(submitted["job_id"])
        with pytest.raises(ServiceError) as excinfo:
            client.result(submitted["job_id"])
        assert excinfo.value.status == 500


# -- one worker pool per daemon ----------------------------------------------

POOLED_JOBS = {
    "batched-sweep": {"kind": "sweep", "options": [0.8, 0.5],
                      "populations": [40, 60, 80], "horizon": 8,
                      "replications": 3, "seed": 7},
    "loop-sweep": {"kind": "sweep", "options": [0.8, 0.5], "populations": [60],
                   "horizon": 8, "replications": 4, "seed": 8, "engine": "loop"},
    "protocol": {"kind": "protocol", "options": [0.8, 0.5], "nodes": 60,
                 "rounds": 8, "loss": 0.2, "replications": 3, "seed": 9},
}


def killing_replication(seed, parameters):
    """Module-level replication that kills the pool worker running it."""
    os._exit(1)


def _pools_started() -> float:
    return get_registry().counter("repro_worker_pools_started_total").value()


def _serial_rows(name):
    """The job's in-process serial rows, as JSON delivers them."""
    rows = execute_request(request_from_dict(POOLED_JOBS[name])).rows
    return json.loads(json.dumps(rows))


class TestPooledDaemon:
    """``process_workers > 1``: one forkserver-started pool serves every job."""

    def test_jobs_share_one_pool_with_serial_rows(self):
        pools = _pools_started()
        with start_daemon(process_workers=2) as handle:
            client = ServiceClient(handle.url)
            for name, payload in POOLED_JOBS.items():
                assert client.run(request_from_dict(payload)) == _serial_rows(name)
            assert _pools_started() == pools + 1
            assert "repro_worker_pools_started_total" in client.metrics()

    def test_killed_worker_fails_its_job_and_the_next_job_recovers(
        self, monkeypatch
    ):
        from repro.service import requests as requests_module

        request = request_from_dict(POOLED_JOBS["loop-sweep"])
        with start_daemon(process_workers=2) as handle:
            client = ServiceClient(handle.url)
            monkeypatch.setattr(
                requests_module, "dynamics_point_replication", killing_replication
            )
            with pytest.raises(JobFailed, match="BrokenProcessPool"):
                client.run(request, timeout=60.0)
            monkeypatch.undo()
            assert client.run(request, timeout=60.0) == _serial_rows("loop-sweep")

    def test_a_pooled_job_never_forks_the_daemon_process(self, monkeypatch):
        expected = _serial_rows("batched-sweep")

        def no_fork():
            raise AssertionError("os.fork called in the daemon process")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        bystander = threading.Thread(target=stop.wait, daemon=True)
        bystander.start()
        try:
            with start_daemon(process_workers=2) as handle:
                request = request_from_dict(POOLED_JOBS["batched-sweep"])
                assert ServiceClient(handle.url).run(request) == expected
        finally:
            stop.set()


def _session_processes(session_id):
    """Live (non-zombie) processes of a session, read from ``/proc``."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # fields: state, ppid, pgrp, session, ...
        if fields[0] != "Z" and int(fields[3]) == session_id:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
@pytest.mark.parametrize(
    "stop, job_in_flight",
    [(signal.SIGINT, False), (signal.SIGINT, True), (signal.SIGTERM, True)],
    ids=["sigint", "sigint-job-in-flight", "sigterm-job-in-flight"],
)
def test_serve_stops_promptly_and_leaves_no_worker(stop, job_in_flight, tmp_path):
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])
    ))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2",
         "--store", str(tmp_path / "serve.sqlite")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True, text=True,
    )
    try:
        banner = process.stdout.readline()
        url = banner.split("listening on ", 1)[1].split()[0]
        client = ServiceClient(url)
        for name in ("batched-sweep", "protocol"):
            client.run(request_from_dict(POOLED_JOBS[name]), timeout=60.0)
        if job_in_flight:
            client.submit(request_from_dict(POOLED_JOBS["loop-sweep"]))
        process.send_signal(stop)
        assert process.wait(timeout=10.0) == 0
        deadline = time.monotonic() + 5.0
        while _session_processes(process.pid):
            assert time.monotonic() < deadline, "a pool process outlived serve"
            time.sleep(0.05)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        process.stdout.close()
