"""Thin stdlib HTTP client for the simulation daemon.

Mirrors the daemon's endpoint surface one method per endpoint, plus a
blocking :meth:`ServiceClient.run` convenience (submit, poll to completion,
fetch rows) used by tests, examples and the CI smoke job.  Only
:mod:`urllib.request` is used, so the client imports anywhere the library
does.

The client speaks **API v1**: every request it makes is prefixed with
``/v1``, and it decodes the v1 error envelope ``{"error": {"code": ...,
"message": ...}}``; any other error payload gets a generic message naming
the HTTP status.

Error contract: non-2xx responses raise :class:`ServiceError` carrying the
HTTP status and the decoded JSON payload — ``status == 429`` is the daemon's
back-pressure signal (full queue; retry later), ``400`` a malformed request,
``404`` an unknown job or path.  No answer (refused, closed or timed out)
raises it with ``status=None``, and a 2xx body that is not JSON with the
status that came with it.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib import error as urllib_error
from urllib import request as urllib_request

from repro.service.requests import SimulationRequest

API_PREFIX = "/v1"


def _error_message(payload: Any) -> Optional[str]:
    """The human-readable message of a v1 error envelope, if ``payload`` is one."""
    if not isinstance(payload, dict):
        return None
    envelope = payload.get("error")
    if isinstance(envelope, dict):
        message = envelope.get("message")
        return str(message) if message is not None else None
    return None


class ServiceError(RuntimeError):
    """A non-2xx daemon response (or no response at all)."""

    def __init__(
        self, message: str, *, status: Optional[int] = None, payload: Any = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload


class JobFailed(ServiceError):
    """The polled job finished in the ``error`` state."""


Payload = Union[SimulationRequest, Dict[str, Any]]


class ServiceClient:
    """HTTP client bound to one daemon base URL."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _fetch(
        self, path: str, *, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, bytes]:
        """One HTTP exchange: the 2xx status and body, or :class:`ServiceError`."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib_request.Request(
            f"{self.base_url}{API_PREFIX}{path}",
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib_request.urlopen(request, timeout=self.timeout) as response:
                return response.status, response.read()
        except urllib_error.HTTPError as error:
            try:
                payload = json.loads(error.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = None
            message = _error_message(payload) or (
                f"daemon returned HTTP {error.code} for {path}"
            )
            raise ServiceError(
                message, status=error.code, payload=payload
            ) from None
        except urllib_error.URLError as error:
            raise ServiceError(
                f"cannot reach daemon at {self.base_url}: {error.reason}"
            ) from None
        except (http.client.HTTPException, OSError) as error:
            # urllib wraps only connection errors; a daemon that closes
            # without answering or answers too late fails while reading.
            raise ServiceError(
                f"no answer from daemon at {self.base_url} for {path}: {error!r}"
            ) from None

    def _call(
        self, path: str, *, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        status, data = self._fetch(path, body=body)
        try:
            return json.loads(data.decode("utf-8"))
        except ValueError as error:
            raise ServiceError(
                f"daemon returned a body that is not JSON for {path}: {error}",
                status=status,
            ) from None

    # -- endpoint methods ----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """``GET /v1/healthz``."""
        return self._call("/healthz")

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats``."""
        return self._call("/stats")

    def metrics(self) -> str:
        """``GET /v1/metrics``: the Prometheus text exposition, verbatim."""
        return self._fetch("/metrics")[1].decode("utf-8", errors="replace")

    def trace(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>/trace``: the job's buffered span records."""
        return self._call(f"/jobs/{job_id}/trace")

    def submit(self, request: Payload) -> Dict[str, Any]:
        """``POST /v1/jobs``; accepts a request object or a raw payload dict.

        Returns ``{"job_id", "key", "status", "attached"}``; raises
        :class:`ServiceError` with ``status=429`` when the queue is full.
        """
        payload = (
            request.to_dict() if isinstance(request, SimulationRequest) else request
        )
        return self._call("/jobs", body=payload)

    def submit_campaign(self, spec: Any) -> Dict[str, Any]:
        """``POST /v1/campaigns``; accepts a campaign spec or ``Campaign``.

        Campaign jobs share the simulation-job lifecycle: poll them with
        :meth:`status`/:meth:`wait`; the result rows are the per-node
        results in execution order.
        """
        payload = spec.to_dict() if hasattr(spec, "to_dict") else spec
        return self._call("/campaigns", body=payload)

    def status(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>``."""
        return self._call(f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>/result``.

        Raises :class:`ServiceError` with ``status=202`` while the job is
        still queued/running and ``status=500`` when it failed.
        """
        payload = self._call(f"/jobs/{job_id}/result")
        if "rows" not in payload:
            # the daemon answers 202 + a status snapshot for a pending job,
            # which urllib treats as success — surface it as an error here
            raise ServiceError(
                f"job {job_id} is still {payload.get('status')}",
                status=202,
                payload=payload,
            )
        return payload

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 120.0,
        poll_interval: float = 0.05,
        max_poll_interval: float = 1.0,
    ) -> Dict[str, Any]:
        """Poll ``/v1/jobs/<id>`` until the job finishes; returns its result.

        Polling backs off exponentially from ``poll_interval`` to
        ``max_poll_interval`` (doubling after each miss), so a quick job is
        noticed within ~50 ms while an hour-long campaign costs the daemon
        ~one status request per second instead of twenty.  Raises
        :class:`JobFailed` if the job errored and :class:`ServiceError` on
        timeout.
        """
        deadline = time.monotonic() + timeout
        interval = max(poll_interval, 0.0)
        while True:
            status = self.status(job_id)
            if status["status"] == "done":
                return self.result(job_id)
            if status["status"] == "error":
                raise JobFailed(
                    f"job {job_id} failed: {status.get('error')}",
                    status=500,
                    payload=status,
                )
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['status']} after {timeout}s"
                )
            time.sleep(min(interval, deadline - now))
            interval = min(max(interval * 2, 0.001), max_poll_interval)

    def run(self, request: Payload, *, timeout: float = 120.0) -> List[Dict[str, Any]]:
        """Submit ``request``, wait for completion, and return its rows."""
        submitted = self.submit(request)
        return self.wait(submitted["job_id"], timeout=timeout)["rows"]
