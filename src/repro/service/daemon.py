"""Simulation-as-a-service: a stdlib HTTP daemon over the parallel runtime.

Architecture (the PVC-style client/daemon split): a thin
:class:`~repro.service.client.ServiceClient` (or any HTTP caller) talks JSON
to :class:`SimulationDaemon`, which owns

* one shared, thread-safe :class:`~repro.runtime.store.ResultStore` — every
  computed task lands there and repeat queries are served by content
  address (cache-first serving: a fully warm job costs ~zero compute);
* a bounded :class:`~repro.service.jobs.JobQueue` whose worker threads
  execute jobs through the same
  :func:`~repro.service.requests.execute_request` path the CLI uses, so an
  HTTP job and the equivalent CLI command return bit-identical rows; and
* one :class:`~repro.runtime.executors.ParallelExecutor` shared by every
  job when the daemon is started with ``process_workers > 1``: its worker
  pool starts at the first pooled shard and stops at shutdown.

Endpoints (API v1 — every route lives under ``/v1/``)::

    POST /v1/jobs              submit {"kind": ..., ...}; 202 + job id
                               (200 when attached to an identical in-flight
                               job; 429 when the queue is full; 400 on a
                               malformed request)
    POST /v1/campaigns         submit a campaign spec ({"name", "nodes"});
                               same job lifecycle, rows are per-node results
    GET  /v1/jobs/<id>         job status (state, timings, cache hits/misses)
    GET  /v1/jobs/<id>/result  result rows once done (202 while pending,
                               500 envelope when the job failed)
    GET  /v1/jobs/<id>/trace   the buffered span records of the latest run
                               of the job's request (trace id, span
                               start/end events, shard timings); a replayed
                               request's earlier runs are dropped
    GET  /v1/healthz           liveness + version
    GET  /v1/stats             store path, rows, hits and misses + queue
                               depth + job counts + queue-wait percentiles
    GET  /v1/metrics           Prometheus text exposition: the same store
                               counters as /stats (one snapshot source, so
                               they never disagree), the queue-wait
                               histogram, and runtime shard/broker metrics

Every other path is a 404: unknown version prefixes (``/v2/...``) answer
``unknown_version`` and anything else, including the unversioned paths
(``/jobs``, ``/healthz``, ...), ``not_found``.  Every error response uses one
envelope::

    {"error": {"code": "<machine-readable>", "message": "<human-readable>"}}

Run it via ``repro serve`` or embed it with :func:`start_daemon` (tests and
examples start it on an ephemeral port in a background thread).
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro import __version__
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    TeeSink,
    Tracer,
    trace_id_for_key,
)
from repro.runtime.executors import ParallelExecutor, SerialExecutor
from repro.runtime.options import ExecutionOptions
from repro.runtime.store import ResultStore
from repro.service.jobs import DONE, ERROR, JobQueue, QueueFull
from repro.service.requests import (
    RequestError,
    execute_request,
    request_from_dict,
)

MAX_REQUEST_BYTES = 1 << 20  # 1 MiB of JSON is far beyond any real request
# A POST answered before its body was read drops a body up to this size, so
# its client reads the answer instead of a broken pipe; a larger one ends
# the connection.
MAX_DRAIN_BYTES = 16 * MAX_REQUEST_BYTES

API_PREFIX = "/v1"
_VERSION_SEGMENT = re.compile(r"v\d+")


class SimulationService:
    """The daemon's engine room: shared store + job queue + executor policy.

    Usable without HTTP (the handler, the CLI and in-process tests all drive
    this object); the HTTP layer only translates it to status codes.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        job_workers: int = 2,
        queue_capacity: int = 16,
        process_workers: int = 1,
        trace_out: Optional[str] = None,
    ) -> None:
        if process_workers < 1:
            raise ValueError(f"process_workers must be >= 1, got {process_workers}")
        self.store = store
        # Per-service registry, so parallel daemons (tests) never share
        # series.  The store counters come in through a collector that reads
        # the same counters() snapshot /stats serves, so /v1/metrics and
        # /v1/stats can never structurally disagree.
        self.registry = MetricsRegistry()
        if store is not None:
            self.registry.register_collector(self._store_samples)
        # Every job's spans land in a bounded in-memory sink keyed by trace
        # id (GET /v1/jobs/<id>/trace); trace_out additionally appends the
        # records to a JSONL file.
        self.trace_sink = MemorySink()
        sink = (
            TeeSink(self.trace_sink, JsonlSink(trace_out))
            if trace_out
            else self.trace_sink
        )
        self.tracer = Tracer(sink)
        self.executor = (
            ParallelExecutor(process_workers) if process_workers > 1 else None
        )
        self.queue = JobQueue(
            self._execute,
            workers=job_workers,
            capacity=queue_capacity,
            registry=self.registry,
        )

    def _store_samples(self):
        """Collector bridging the store's counters into ``/v1/metrics``."""
        counters = self.store.counters()
        for name, value in counters.as_dict().items():
            yield (
                f"repro_store_{name}_total",
                "counter",
                f"Result store {name} (matches the /v1/stats store field).",
                {},
                value,
            )
        yield (
            "repro_store_rows",
            "gauge",
            "Result store rows (matches the /v1/stats store field).",
            {},
            len(self.store),
        )

    def _execute(self, request: Any) -> Tuple[List[Dict[str, Any]], str, int, int]:
        before = self.store.counters() if self.store is not None else None
        # The job span is the trace root; its id derives from the request's
        # content address, which is exactly the trace_id a job snapshot
        # reports — GET /v1/jobs/<id>/trace joins the two.  Each run restarts
        # its buffer (identical requests in flight share one job).
        key = request.key()
        self.trace_sink.discard(trace_id_for_key(key))
        with self.tracer.span(
            "job", key, attributes={"kind": getattr(request, "kind", None)}
        ):
            if getattr(request, "kind", None) == "campaign":
                # Imported lazily: repro.campaign builds on this package.
                from repro.campaign.scheduler import run_campaign

                # Campaigns schedule their own nodes; the daemon's executor
                # policy becomes the campaign backend (serial when unset, so
                # results match any other backend bit for bit).
                backend = self.executor or SerialExecutor()
                campaign_result = run_campaign(
                    request, backend=backend, store=self.store, tracer=self.tracer
                )
                rows: List[Dict[str, Any]] = [
                    campaign_result[node_id].to_dict()
                    for node_id in campaign_result.order
                ]
                description = (
                    f"campaign {request.name}: {len(request)} node(s), "
                    f"{len(request.simulate_nodes())} simulate"
                )
            else:
                result = execute_request(
                    request,
                    options=ExecutionOptions(
                        executor=self.executor, store=self.store, tracer=self.tracer
                    ),
                )
                rows, description = result.rows, result.description
        # Counter deltas are attributed per job; with several jobs in flight
        # on one store they are approximate, exact when jobs run one at a
        # time (the /stats totals are always exact).
        if self.store is not None:
            after = self.store.counters()
            hits, misses = after.hits - before.hits, after.misses - before.misses
        else:
            hits = misses = 0
        return (rows, description, hits, misses)

    def submit(self, payload: Dict[str, Any]):
        """Validate and enqueue a request payload; returns ``(job, attached)``."""
        request = request_from_dict(payload)
        return self.queue.submit(request)

    def submit_campaign(self, payload: Dict[str, Any]):
        """Validate and enqueue a campaign spec; returns ``(job, attached)``.

        Campaign jobs ride the same :class:`~repro.service.jobs.JobQueue` as
        simulation jobs — same states, back-pressure and in-flight dedup
        (by the campaign's content address).
        """
        # Imported lazily: repro.campaign builds on this package.
        from repro.campaign.graph import campaign_from_spec

        campaign = campaign_from_spec(payload)
        return self.queue.submit(campaign)

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: store counters plus queue counters."""
        store_stats: Dict[str, Any] = {"attached": self.store is not None}
        if self.store is not None:
            store_stats.update(self.store.counters().as_dict())
            store_stats["path"] = str(self.store.path)
            store_stats["rows"] = len(self.store)
        return {
            "version": __version__,
            "store": store_stats,
            "queue": self.queue.stats(),
        }

    def render_metrics(self) -> str:
        """The ``/v1/metrics`` body: service registry plus runtime metrics.

        The service registry holds the queue histogram and the store
        collector; the process-wide registry holds the executor/broker
        metrics (shards in flight, dispatch overhead, requeues).  Their
        metric names are disjoint, so the concatenation is valid Prometheus
        text.
        """
        service_text = self.registry.render_prometheus()
        runtime_text = get_registry().render_prometheus()
        return service_text + runtime_text

    def job_trace(self, job: Any) -> Dict[str, Any]:
        """The ``/v1/jobs/<id>/trace`` payload: buffered span records."""
        trace_id = trace_id_for_key(job.key)
        return {
            "job_id": job.id,
            "trace_id": trace_id,
            "truncated": self.trace_sink.truncated(trace_id),
            "records": self.trace_sink.records(trace_id),
        }

    def close(self) -> None:
        """Stop the job workers, then the pool; the caller owns the store."""
        self.queue.close()
        if self.executor is not None:
            self.executor.close()
        self.tracer.close()


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the owning server's SimulationService."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm on, a
    # kept-alive connection waits out the client's delayed ACK (~40 ms) on
    # every response.
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; keep the daemon
    # quiet unless the server was built with verbose logging.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        keep_alive = self.command != "POST" or self._body_read or self._drain_body()
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if not keep_alive:
            # The unread body would be parsed as the connection's next
            # request; this header also sets close_connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _drain_body(self) -> bool:
        """Read and drop a POST body nothing read; ``False`` if it stays unread."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return False
        if length > MAX_DRAIN_BYTES:
            return False
        while length > 0:
            chunk = self.rfile.read(min(length, 1 << 16))
            if not chunk:
                return False
            length -= len(chunk)
        return True

    def _send_text(self, status: int, body: str) -> None:
        """Plain-text response (the Prometheus exposition endpoint)."""
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _send_error(
        self,
        status: int,
        code: str,
        message: str,
        *,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        """One error envelope for every failure: ``{"error": {code, message}}``."""
        payload: Dict[str, Any] = {"error": {"code": code, "message": message}}
        if extra:
            payload.update(extra)
        self._send_json(status, payload)

    def _route(self) -> Optional[List[str]]:
        """The path's segments after the ``/v1`` prefix.

        ``/v1/...`` is the only surface.  Any *other* version prefix
        (``/v2/...``) is answered with a 404 ``unknown_version`` envelope and
        any other path with a 404 ``not_found`` envelope here, and ``None``
        is returned.
        """
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts and parts[0] == API_PREFIX.lstrip("/"):
            return parts[1:]
        if parts and _VERSION_SEGMENT.fullmatch(parts[0]):
            self._send_error(
                404,
                "unknown_version",
                f"unknown API version {parts[0]!r}; this daemon serves "
                f"{API_PREFIX}",
            )
        else:
            self._send_error(404, "not_found", f"unknown path {self.path}")
        return None

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise RequestError("request body must be a JSON object")
        if length > MAX_REQUEST_BYTES:
            raise RequestError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_REQUEST_BYTES}-byte limit"
            )
        data = self.rfile.read(length)
        self._body_read = True
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._body_read = False
        parts = self._route()
        if parts is None:
            return
        if parts == ["jobs"]:
            submit = self.service.submit
            invalid_code = "invalid_request"
        elif parts == ["campaigns"]:
            submit = self.service.submit_campaign
            invalid_code = "invalid_campaign"
        else:
            self._send_error(404, "not_found", f"unknown path {self.path}")
            return
        try:
            job, attached = submit(self._read_json())
        except ValueError as error:
            # RequestError and CampaignError are both ValueErrors; the
            # latter is only importable lazily (repro.campaign builds on
            # this package), so catch the shared base.
            self._send_error(400, invalid_code, str(error))
            return
        except QueueFull as error:
            self._send_error(429, "queue_full", str(error))
            return
        self._send_json(
            200 if attached else 202,
            {
                "job_id": job.id,
                "key": job.key,
                "status": job.status,
                "attached": attached,
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        parts = self._route()
        if parts is None:
            return
        if parts == ["healthz"]:
            self._send_json(200, {"status": "ok", "version": __version__})
            return
        if parts == ["stats"]:
            self._send_json(200, self.service.stats())
            return
        if parts == ["metrics"]:
            self._send_text(200, self.service.render_metrics())
            return
        if len(parts) >= 2 and parts[0] == "jobs":
            job = self.service.queue.get(parts[1])
            if job is None:
                self._send_error(404, "unknown_job", f"unknown job {parts[1]!r}")
                return
            if len(parts) == 2:
                self._send_json(200, job.snapshot())
                return
            if len(parts) == 3 and parts[2] == "trace":
                self._send_json(200, self.service.job_trace(job))
                return
            if len(parts) == 3 and parts[2] == "result":
                if job.status == DONE:
                    payload = job.snapshot()
                    payload["description"] = job.description
                    payload["rows"] = job.rows
                    self._send_json(200, payload)
                elif job.status == ERROR:
                    self._send_error(
                        500,
                        "job_failed",
                        job.error or "job failed",
                        extra={"job": job.snapshot()},
                    )
                else:
                    self._send_json(202, job.snapshot())
                return
        self._send_error(404, "not_found", f"unknown path {self.path}")


class SimulationDaemon(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to a :class:`SimulationService`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: SimulationService,
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service
        self.verbose = verbose

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


@dataclass
class DaemonHandle:
    """A daemon running in a background thread (the embedding/test harness)."""

    server: SimulationDaemon
    service: SimulationService
    thread: threading.Thread

    @property
    def url(self) -> str:
        return self.server.url

    def close(self) -> None:
        """Shut down HTTP, the job workers, and the store (if daemon-owned)."""
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self.thread.join(timeout=10.0)

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def start_daemon(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    store: Optional[ResultStore] = None,
    job_workers: int = 2,
    queue_capacity: int = 16,
    process_workers: int = 1,
    verbose: bool = False,
    trace_out: Optional[str] = None,
) -> DaemonHandle:
    """Start a daemon in a background thread; ``port=0`` picks a free port."""
    service = SimulationService(
        store,
        job_workers=job_workers,
        queue_capacity=queue_capacity,
        process_workers=process_workers,
        trace_out=trace_out,
    )
    server = SimulationDaemon((host, port), service, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return DaemonHandle(server=server, service=service, thread=thread)
