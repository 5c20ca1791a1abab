"""Span recorder and the wrappers the traced run installs around repro's layers.

Nothing under ``src/`` changes for tracing: :func:`install` replaces the
public entry point of each layer with a wrapper that records a span around
the original call.  Spans nest per thread; when a thread's outermost span
ends, its *tree* is kept in memory as the wall-clock window it covered, the
self time of every layer inside it (span duration minus its child spans) and
the counts recorded under it.  Trees are written out only when the process
ends, so recording costs two clock reads per call.

Work that runs in another process (pool workers, brokers) is attributed in
the parent from the worker-measured ``last_shard_timing``: the part of the
parent's wait that some worker's compute interval covers is engine time,
and the rest stays with the dispatching layer.

The module imports only the standard library at import time, so the traced
entry script can load it before timing ``import repro.cli``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Tree = Dict[str, Any]

#: Replication-function module -> engine family.
ENGINE_FAMILIES = {
    "repro.experiments.dynamics_sweep": "sweep",
    "repro.experiments.network_sweep": "network",
    "repro.experiments.protocol_sweep": "protocol",
}

class Recorder:
    """Per-thread span stacks whose finished root spans become trees."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.trees: List[Tree] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def active(self) -> bool:
        """False in forked children, whose records would never be read."""
        return os.getpid() == self.pid

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        stack = self._stack()
        if stack:
            tree = stack[-1][3]
        else:
            tree = {"tag": None, "start": time.time(), "end": None,
                    "layers": {}, "counts": {}}
        frame = [layer, time.perf_counter(), 0.0, tree]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame``; returns its duration in seconds."""
        duration = time.perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        layers = frame[3]["layers"]
        layers[frame[0]] = layers.get(frame[0], 0.0) + duration - frame[2]
        if stack:
            stack[-1][2] += duration
        else:
            frame[3]["end"] = time.time()
            with self._lock:
                self.trees.append(frame[3])
        return duration

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to count ``name`` of the current tree, if any."""
        stack = self._stack()
        if stack:
            counts = stack[-1][3]["counts"]
            counts[name] = counts.get(name, 0) + value

    def move(self, source: str, target: str, seconds: float) -> None:
        """Re-attribute ``seconds`` of self time from ``source`` to ``target``."""
        stack = self._stack()
        if stack and seconds > 0:
            layers = stack[-1][3]["layers"]
            layers[source] = layers.get(source, 0.0) - seconds
            layers[target] = layers.get(target, 0.0) + seconds

    def trees_between(self, start: float, end: float) -> List[Tree]:
        with self._lock:
            return [tree for tree in self.trees if start <= tree["start"] <= end]


def _spanned(
    recorder: Recorder,
    layer: str,
    function: Callable,
    *,
    before: Optional[Callable[[Recorder, tuple], None]] = None,
    tag: Optional[Callable[[tuple, Any], str]] = None,
) -> Callable:
    """Wrap ``function`` in a ``layer`` span.

    ``before`` records counts from the arguments; ``tag`` labels a root span
    (from the arguments and the result) so a client can find its tree.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return function(*args, **kwargs)
        frame = recorder.enter(layer)
        try:
            if before is not None:
                before(recorder, args)
            result = function(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if tag is not None and frame[3]["end"] is not None:
            frame[3]["tag"] = tag(args, result)
        return result

    return wrapper


def _steps(parameters: Dict[str, Any], replicates: int) -> int:
    return int(parameters["N"]) * int(parameters["T"]) * replicates


def _engine(recorder: Recorder, function: Callable) -> Callable:
    """Wrap a replication function: engine time, family and agent steps."""
    family = ENGINE_FAMILIES[function.__module__]
    if getattr(function, "grid_replications", False):
        def steps(args):
            return sum(_steps(p, len(seeds)) for seeds, p in zip(args[0], args[1]))
    elif getattr(function, "batched_replications", False):
        def steps(args):
            return _steps(args[1], len(args[0]))
    else:
        def steps(args):
            return _steps(args[1], 1)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return function(*args, **kwargs)
        frame = recorder.enter("engine")
        try:
            return function(*args, **kwargs)
        finally:
            duration = recorder.exit(frame)
            recorder.add(f"engine.{family}_s", duration)
            recorder.add("engine.agent_steps", steps(args))

    return wrapper


def covered(waits: Sequence[Tuple[float, float]], work: Sequence[Tuple[float, float]]) -> float:
    """Seconds of the ``waits`` intervals that some ``work`` interval covers."""
    merged: List[List[float]] = []
    for start, end in sorted(work):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = 0.0
    for wait_start, wait_end in waits:
        for start, end in merged:
            total += max(0.0, min(end, wait_end) - max(start, wait_start))
    return total


def _dispatcher(
    recorder: Recorder, layer: str, remote: bool, pooled: bool, function: Callable
) -> Callable:
    """Wrap a backend's ``run_shards`` generator.

    Only the time the caller spends waiting inside ``next()`` belongs to
    ``layer``; the caller's own work between shards (store flushes) does
    not.  For ``remote`` backends the shards' worker-measured wall time is
    the engine's busy time, and the part of the waits it covers moves from
    ``layer`` to ``engine``.
    """

    @functools.wraps(function)
    def run_shards(self, shards, replication):
        if not recorder.active:
            yield from function(self, shards, replication)
            return
        if shards:
            recorder.add(f"{layer}.shards", len(shards))
            if pooled:
                recorder.add("dispatch.pools_started", 1)
        inner = function(self, shards, replication)
        waits: List[Tuple[float, float]] = []
        work: List[Tuple[float, float]] = []
        while True:
            frame = recorder.enter(layer)
            try:
                results = next(inner)
            except StopIteration:
                break
            finally:
                recorder.exit(frame)
                end = time.perf_counter()
                waits.append((frame[1], end))
            if remote:
                wall = float((self.last_shard_timing or {}).get("wall_s", 0.0))
                work.append((end - wall, end))
                if results:
                    module = results[0][0].function_ref.partition(":")[0]
                    recorder.add(f"engine.{ENGINE_FAMILIES.get(module, 'other')}_s", wall)
                recorder.add(
                    "engine.agent_steps",
                    sum(_steps(task.parameters, len(task.seeds)) for task, _ in results),
                )
            yield results
        if remote:
            recorder.move(layer, "engine", covered(waits, work))

    return run_shards


def _replace(original: Any, replacement: Any) -> None:
    """Point every reference to ``original`` in loaded repro modules at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def _count(name: str, size: Callable[[tuple], int]) -> Callable[[Recorder, tuple], None]:
    def before(recorder: Recorder, args: tuple) -> None:
        recorder.add(name, size(args))

    return before


def install(recorder: Recorder, *, cli_main: bool = False) -> None:
    """Wrap the public entry point of every layer with ``recorder`` spans.

    ``cli_main`` also wraps :func:`repro.cli.main` (only for one-shot CLI
    processes; a daemon's ``main`` never returns while it serves).
    """
    import importlib

    import repro.campaign.broker as broker
    import repro.campaign.scheduler as scheduler
    import repro.cli as cli
    import repro.runtime.driver as driver
    import repro.runtime.executors as executors
    import repro.runtime.store as store
    import repro.service.daemon  # noqa: F401 - loaded so its references get patched
    import repro.service.requests as requests

    functions: List[Tuple[Any, Callable]] = []
    for module_name in ENGINE_FAMILIES:
        # Every module-level ``*_replication`` function is an engine entry
        # point, whichever engines a version of the code still has.
        module = importlib.import_module(module_name)
        functions.extend(
            (value, _engine(recorder, value))
            for name, value in vars(module).items()
            if name.endswith("_replication")
            and callable(value)
            and value.__module__ == module_name
        )
    for name in ("request_from_dict", "sweep_request", "network_request",
                 "protocol_request", "prepare_request"):
        original = getattr(requests, name)
        tag = (lambda args, result: result.key()) if name == "request_from_dict" else None
        functions.append((original, _spanned(recorder, "requests.prepare", original, tag=tag)))
    functions.append((
        requests.execute_request,
        _spanned(recorder, "requests.execute", requests.execute_request,
                 tag=lambda args, result: args[0].key()),
    ))
    functions.append((driver.run_plan, _spanned(recorder, "driver", driver.run_plan)))
    functions.append((
        scheduler.run_campaign,
        _spanned(recorder, "campaign", scheduler.run_campaign,
                 before=_count("campaign.nodes", lambda args: len(args[0]))),
    ))
    if cli_main:
        functions.append((cli.main, _spanned(recorder, "cli.main", cli.main)))
    for original, replacement in functions:
        _replace(original, replacement)

    result_store = store.ResultStore
    methods = {
        "__init__": ("store.open", None),
        "key_for": ("store.key", _count("store.keys", lambda args: 1)),
        "get_many": ("store.lookup", _count("store.lookup_keys", lambda args: len(args[1]))),
        "put_many": ("store.flush", _count("store.flush_entries", lambda args: len(args[1]))),
    }
    for name, (layer, before) in methods.items():
        setattr(result_store, name,
                _spanned(recorder, layer, getattr(result_store, name), before=before))
    for backend, layer, remote, pooled in (
        (executors.SerialExecutor, "dispatch", False, False),
        (executors.ParallelExecutor, "dispatch", True, True),
        (broker.BrokerBackend, "broker", True, False),
    ):
        backend.run_shards = _dispatcher(recorder, layer, remote, pooled, backend.run_shards)
    # Drop references resolved before the replication functions were wrapped.
    clear = getattr(executors.resolve_replication, "cache_clear", None)
    if clear is not None:
        clear()
