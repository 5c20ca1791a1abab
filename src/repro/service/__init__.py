"""Simulation-as-a-service: request layer, job queue, HTTP daemon, client.

The service package turns the one-shot CLI system into a long-running,
cache-first API daemon on top of the parallel runtime (:mod:`repro.runtime`):

* :mod:`repro.service.requests` — the **shared request layer**: validated
  :class:`SimulationRequest` objects and one :func:`execute_request` path
  used by both the CLI and the daemon, so HTTP jobs and CLI commands produce
  bit-identical rows;
* :mod:`repro.service.jobs` — :class:`JobQueue`: bounded queue + worker
  threads + in-flight dedup by content address (back-pressure via
  :class:`QueueFull` -> HTTP 429);
* :mod:`repro.service.daemon` — :class:`SimulationDaemon`: the stdlib
  ``ThreadingHTTPServer`` front end serving API v1 (``POST /v1/jobs``,
  ``POST /v1/campaigns``, ``GET /v1/jobs/<id>``, ``GET /v1/jobs/<id>/result``,
  ``GET /v1/healthz``, ``GET /v1/stats``), embeddable via
  :func:`start_daemon`;
* :mod:`repro.service.client` — :class:`ServiceClient`: a thin
  ``urllib``-based client (submit/status/result/wait/run).

Entry point: ``repro serve --port 8080 --store results.sqlite``; see the
README's "Serving" section.  Every export loads its module on first access
(PEP 562), so a one-shot CLI command never imports the client, the job queue
or the daemon (with the HTTP stack).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "requests": (
            "RequestError",
            "RequestResult",
            "SimulationRequest",
            "execute_request",
            "network_request",
            "prepare_request",
            "protocol_request",
            "request_from_dict",
            "sweep_request",
        ),
        "client": ("JobFailed", "ServiceClient", "ServiceError"),
        "daemon": (
            "DaemonHandle",
            "SimulationDaemon",
            "SimulationService",
            "start_daemon",
        ),
        "jobs": ("Job", "JobQueue", "QueueFull"),
    },
)
