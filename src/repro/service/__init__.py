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
README's "Serving" section.  Only the request layer loads with the package;
the client, job queue and daemon (with the HTTP stack) load on first access
(PEP 562), so a one-shot CLI command never imports them.
"""

import importlib

from repro.service.requests import (
    RequestError,
    RequestResult,
    SimulationRequest,
    execute_request,
    network_request,
    prepare_request,
    protocol_request,
    request_from_dict,
    sweep_request,
)

_LAZY_MODULES = {
    "JobFailed": "client",
    "ServiceClient": "client",
    "ServiceError": "client",
    "DaemonHandle": "daemon",
    "SimulationDaemon": "daemon",
    "SimulationService": "daemon",
    "start_daemon": "daemon",
    "Job": "jobs",
    "JobQueue": "jobs",
    "QueueFull": "jobs",
}


def __getattr__(name):
    module = _LAZY_MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "RequestError",
    "RequestResult",
    "SimulationRequest",
    "execute_request",
    "network_request",
    "prepare_request",
    "protocol_request",
    "request_from_dict",
    "sweep_request",
    *_LAZY_MODULES,
]
