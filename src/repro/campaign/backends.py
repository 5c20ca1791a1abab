"""Backend selection for ``repro campaign --backend inproc|pool|broker``."""

from __future__ import annotations

from typing import Any, Optional

from repro.campaign.broker import DEFAULT_ADDRESS, BrokerBackend
from repro.runtime.executors import ParallelExecutor, SerialExecutor
from repro.runtime.options import BACKEND_NAMES


def make_backend(
    name: str,
    *,
    workers: Optional[int] = None,
    brokers: Optional[str] = None,
    min_brokers: int = 1,
    timeout: float = 30.0,
) -> Any:
    """Build the named campaign :class:`~repro.runtime.backend.Backend`.

    ``inproc`` is the in-process :class:`SerialExecutor` (debugging, and the
    bit-identity reference); ``pool`` the multi-process
    :class:`ParallelExecutor` (``workers`` processes); ``broker`` a
    :class:`BrokerBackend` coordinator bound to the ``brokers``
    ``tcp://host:port`` endpoint, waiting for ``min_brokers`` brokers.  All
    three produce bit-identical campaign results — see
    :mod:`repro.campaign.broker`.
    """
    if name == "inproc":
        return SerialExecutor()
    if name == "pool":
        return ParallelExecutor(workers)
    if name == "broker":
        return BrokerBackend(
            brokers if brokers is not None else DEFAULT_ADDRESS,
            min_brokers=min_brokers,
            timeout=timeout,
        )
    raise ValueError(
        f"unknown campaign backend {name!r}; expected one of "
        f"{', '.join(BACKEND_NAMES)}"
    )
