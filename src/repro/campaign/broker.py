"""Socket coordinator/broker backend: shard execution across hosts.

The third campaign backend scales a :class:`~repro.runtime.shard.ShardPlan`
past one machine with nothing but the stdlib.  Topology and handshake:

* The **coordinator** (:class:`BrokerBackend`, created by ``repro campaign
  --backend broker --brokers tcp://HOST:PORT``) binds the given TCP endpoint
  and waits for brokers.
* Each **broker** (``repro broker --coordinator tcp://HOST:PORT``, i.e.
  :func:`run_broker`) dials the coordinator — retrying while it boots — and
  introduces itself with a ``hello`` frame carrying its worker count.
* The coordinator serialises task refs + parameters (:func:`task_to_wire`)
  and streams one ``shard`` frame at a time to each idle broker; the broker
  executes the shard's tasks — in-process, or on one local
  :class:`~repro.runtime.executors.ParallelExecutor` kept for the broker's
  lifetime when started with ``--workers K`` — and streams a ``result``
  frame back.  On ``close()`` the coordinator sends every broker
  a ``shutdown`` frame.

Framing is length-prefixed JSON: a 4-byte big-endian payload length followed
by one UTF-8 JSON object.  Tasks survive the JSON round trip because the
result store canonicalises tuples and lists identically — a broker-computed
row merges under the same content address as a local one — and the
coordinator pairs returned rows with its *own* :class:`Task` objects (by
shard id and task order), so nothing the wire could mangle ever reaches the
store keys.

Fault containment: a broker that crashes or drops its connection forfeits
exactly the one shard it was running — the coordinator requeues that shard
for the next idle broker and carries on.  An ``error`` frame (the task
itself raised) aborts the run instead: tasks are deterministic, so retrying
elsewhere would fail the same way.

Determinism: brokers run the same :func:`~repro.runtime.shard.execute_shard`
compute path as every other backend and tasks are execution-invariant, so a
broker campaign is bit-identical to a ``SerialExecutor`` run — at any broker
count, with any shard-to-broker assignment, crashes included.
"""

from __future__ import annotations

import json
import selectors
import socket
import struct
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, get_registry
from repro.obs.trace import current_span
from repro.runtime.backend import check_resolvable
from repro.runtime.driver import _shard_count
from repro.runtime.executors import (
    SHARDS_PER_WORKER,
    ParallelExecutor,
    ShardResults,
    ShardTiming,
    _execute_shard,
    resolve_replication,
)
from repro.runtime.shard import Task, _checked_rows, partition_tasks
from repro.utils.logging import get_logger

logger = get_logger("campaign.broker")

_LENGTH = struct.Struct(">I")
MAX_FRAME_BYTES = 64 * 1024 * 1024
"""Upper bound on one frame; a length beyond this means a corrupt stream."""

DEFAULT_ADDRESS = "tcp://127.0.0.1:0"


class BrokerError(RuntimeError):
    """The broker run cannot make progress (no brokers, or a task failed)."""


class BrokerProtocolError(BrokerError):
    """A peer sent bytes that are not valid protocol frames."""


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``tcp://host:port`` into ``(host, port)``."""
    if not address.startswith("tcp://"):
        raise ValueError(f"broker addresses look like tcp://host:port, got {address!r}")
    host, _, port = address[len("tcp://") :].rpartition(":")
    if not host or not port:
        raise ValueError(f"broker addresses look like tcp://host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"invalid port in broker address {address!r}") from None


def task_to_wire(task: Task) -> Dict[str, Any]:
    """The JSON-able form of one task (what a ``shard`` frame carries)."""
    return {
        "ordinal": task.ordinal,
        "point_index": task.point_index,
        "name": task.name,
        "function_ref": task.function_ref,
        "mode": task.mode,
        "parameters": dict(task.parameters),
        "seeds": list(task.seeds),
        "replicate_offset": task.replicate_offset,
    }


def task_from_wire(payload: Dict[str, Any]) -> Task:
    """Rebuild a :class:`Task` on the broker side of the wire."""
    try:
        return Task(
            ordinal=int(payload["ordinal"]),
            point_index=int(payload["point_index"]),
            name=str(payload["name"]),
            function_ref=str(payload["function_ref"]),
            mode=str(payload["mode"]),
            parameters=dict(payload["parameters"]),
            seeds=tuple(int(seed) for seed in payload["seeds"]),
            replicate_offset=int(payload["replicate_offset"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise BrokerProtocolError(f"malformed task frame: {error}") from None


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame (blocking)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    blocking = sock.getblocking()
    sock.setblocking(True)
    try:
        sock.sendall(_LENGTH.pack(len(payload)) + payload)
    finally:
        sock.setblocking(blocking)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    while count > 0:
        chunk = sock.recv(count)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _take_frame(
    buffer: bytes, origin: str = ""
) -> Tuple[Optional[Dict[str, Any]], int]:
    """Decode the frame at the head of ``buffer`` (both ends of the wire).

    Returns ``(message, frame size)``, or ``(None, bytes needed)`` while the
    frame is incomplete.  The length cap is checked as soon as the header is
    in; ``origin`` (``" from host:port"``) names the peer in errors.
    """
    if len(buffer) < _LENGTH.size:
        return None, _LENGTH.size
    length = _LENGTH.unpack_from(buffer)[0]
    if length > MAX_FRAME_BYTES:
        raise BrokerProtocolError(
            f"frame of {length} bytes{origin} exceeds the protocol cap"
        )
    size = _LENGTH.size + length
    if len(buffer) < size:
        return None, size
    try:
        message = json.loads(buffer[_LENGTH.size : size].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BrokerProtocolError(f"frame{origin} is not valid JSON: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise BrokerProtocolError(f"frame{origin} is not a typed message: {message!r}")
    return message, size


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Read one length-prefixed JSON frame (blocking)."""
    buffer = b""
    message, needed = None, _LENGTH.size
    while message is None:
        buffer += _recv_exact(sock, needed - len(buffer))
        message, needed = _take_frame(buffer)
    return message


class _BrokerConnection:
    """Coordinator-side state of one connected broker."""

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.buffer = b""
        self.ready = False  # hello received
        self.in_flight: Optional[int] = None  # shard id being executed
        self.dispatched_at: float = 0.0  # perf_counter at shard send

    def feed(self) -> List[Dict[str, Any]]:
        """Drain readable bytes; return complete frames (EOF raises)."""
        while True:
            try:
                chunk = self.sock.recv(65536)
            except BlockingIOError:
                break
            if not chunk:
                raise ConnectionError(f"broker {self.peer} closed the connection")
            self.buffer += chunk
            if len(chunk) < 65536:
                break
        frames: List[Dict[str, Any]] = []
        while True:
            message, size = _take_frame(self.buffer, f" from {self.peer}")
            if message is None:
                return frames
            self.buffer = self.buffer[size:]
            frames.append(message)


class BrokerBackend:
    """Coordinator side of the socket backend (a runtime ``Backend``).

    Parameters
    ----------
    address:
        ``tcp://host:port`` endpoint to bind; port ``0`` picks an ephemeral
        port (read the resolved endpoint back from :attr:`address` — tests
        and the CLI print it for brokers to dial).
    min_brokers:
        Wait for this many connected brokers before dispatching the first
        shard, so a campaign doesn't funnel everything through whichever
        broker happened to dial first.
    timeout:
        Seconds to wait with work pending but **zero** connected brokers
        (at start-up, or after every broker died) before raising
        :class:`BrokerError`.

    The backend accepts brokers at any moment — late brokers join the
    current run mid-stream — and connections persist across ``run_shards``
    calls, so one fleet of brokers serves every simulate node of a campaign.
    It cuts each plan into :attr:`num_shards` chunks, four per broker.
    Call :meth:`close` (or use the backend as a context manager) to send
    brokers a ``shutdown`` frame and release the listening socket.
    """

    def __init__(
        self,
        address: str = DEFAULT_ADDRESS,
        *,
        min_brokers: int = 1,
        timeout: float = 30.0,
    ) -> None:
        if min_brokers <= 0:
            raise ValueError(f"min_brokers must be positive, got {min_brokers}")
        host, port = parse_address(address)
        self.min_brokers = min_brokers
        self.timeout = timeout
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._brokers: List[_BrokerConnection] = []
        self._closed = False
        self._gate_open = False  # min_brokers reached once
        #: Broker-measured timing of the most recently yielded shard (read
        #: by the driver right after each ``run_shards`` yield).
        self.last_shard_timing: Optional[ShardTiming] = None
        registry = get_registry()
        self._in_flight_gauge = registry.gauge(
            "repro_shards_in_flight",
            "Shards currently submitted to an execution backend.",
        )
        self._completed_counter = registry.counter(
            "repro_shards_completed_total",
            "Shards completed, by execution backend.",
        )
        self._requeue_counter = registry.counter(
            "repro_broker_requeues_total",
            "Shards requeued after a broker dropped its connection.",
        )
        self._dispatch_histogram = registry.histogram(
            "repro_shard_dispatch_overhead_seconds",
            "Parent-side shard latency minus worker-measured wall time "
            "(pickling, pool queueing, result transfer).",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )

    @property
    def num_shards(self) -> int:
        """Dispatch chunks for a plan: four per broker, at least ``min_brokers`` of them.

        Brokers that connected and have not dropped count, so a plan is cut
        for the fleet that serves it; before the first broker dials in, the
        fleet ``min_brokers`` promises.  Granularity never changes results.
        """
        return SHARDS_PER_WORKER * max(self.min_brokers, len(self._brokers))

    @property
    def address(self) -> str:
        """The bound ``tcp://host:port`` endpoint brokers should dial."""
        host, port = self._listener.getsockname()[:2]
        return f"tcp://{host}:{port}"

    def __enter__(self) -> "BrokerBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut down connected brokers and release the listening socket."""
        if self._closed:
            return
        self._closed = True
        # _drop mutates self._brokers; iterate over a copy or every other
        # broker is skipped and never told to shut down.
        for broker in list(self._brokers):
            try:
                send_frame(broker.sock, {"type": "shutdown"})
            except OSError:
                pass
            self._drop(broker)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()

    def _drop(self, broker: _BrokerConnection) -> None:
        # Every way a busy broker goes (requeue, failed or refused shard,
        # abandoned run, close()) ends here, so its shard leaves the gauge.
        if broker.in_flight is not None:
            broker.in_flight = None
            self._in_flight_gauge.dec(backend="broker")
        try:
            self._selector.unregister(broker.sock)
        except (KeyError, ValueError):
            pass
        try:
            broker.sock.close()
        except OSError:
            pass
        if broker in self._brokers:
            self._brokers.remove(broker)

    def _accept(self) -> None:
        try:
            sock, peer_address = self._listener.accept()
        except (BlockingIOError, OSError):
            return
        sock.setblocking(False)
        broker = _BrokerConnection(sock, f"{peer_address[0]}:{peer_address[1]}")
        self._selector.register(sock, selectors.EVENT_READ, broker)
        self._brokers.append(broker)

    def _ready_brokers(self) -> List[_BrokerConnection]:
        return [
            broker
            for broker in self._brokers
            if broker.ready and broker.in_flight is None
        ]

    def run_shards(
        self, shards: Sequence[Sequence[Task]], replication: Callable
    ) -> Iterator[ShardResults]:
        """Stream shards to idle brokers, yielding each result as it lands.

        A broker that disconnects mid-shard forfeits exactly that shard —
        it returns to the queue for the next idle broker.  Result rows are
        paired with this process's own :class:`Task` objects, so the store
        merge never depends on wire round-trip fidelity.
        """
        if self._closed:
            raise BrokerError("this BrokerBackend is closed")
        if not shards:
            return
        check_resolvable(replication, "BrokerBackend")
        # A broker still marked busy here belongs to an abandoned earlier
        # run; its eventual result frame would be misattributed, so drop it
        # (its run_broker loop sees the hang-up and exits cleanly).
        for broker in list(self._brokers):
            if broker.in_flight is not None:
                self._drop(broker)
        shard_tasks: Dict[int, List[Task]] = {
            shard_id: list(shard) for shard_id, shard in enumerate(shards)
        }
        pending: Deque[int] = deque(shard_tasks)
        outstanding = len(shard_tasks)
        # The min_brokers gate only delays the backend's *first* dispatch;
        # once enough brokers have shown up it stays open for this and every
        # later run (a campaign's next simulate node) even if some die.
        last_progress = time.monotonic()
        while outstanding > 0:
            if not self._gate_open and self._ready_count() >= self.min_brokers:
                self._gate_open = True
                last_progress = time.monotonic()
            if self._gate_open:
                self._dispatch(pending, shard_tasks)
            in_flight = sum(
                1 for broker in self._brokers if broker.in_flight is not None
            )
            if in_flight == 0 and time.monotonic() - last_progress > self.timeout:
                raise BrokerError(
                    f"no broker progress for {self.timeout:.0f}s with "
                    f"{outstanding} shard(s) outstanding "
                    f"({self._ready_count()} broker(s) connected, "
                    f"{self.min_brokers} required); start brokers with "
                    f"`repro broker --coordinator {self.address}`"
                )
            for key, _ in self._selector.select(timeout=0.05):
                if key.data is None:
                    self._accept()
                    continue
                broker: _BrokerConnection = key.data
                try:
                    frames = broker.feed()
                except (ConnectionError, OSError):
                    # At most this broker's one in-flight shard is lost;
                    # requeue it and keep going on the survivors.
                    if broker.in_flight is not None:
                        pending.appendleft(broker.in_flight)
                        self._record_requeue(broker, broker.in_flight)
                    self._drop(broker)
                    continue
                for frame in frames:
                    done = self._handle(broker, frame, shard_tasks)
                    if done is not None:
                        outstanding -= 1
                        last_progress = time.monotonic()
                        yield done

    def _ready_count(self) -> int:
        return sum(1 for broker in self._brokers if broker.ready)

    def _record_requeue(self, broker: _BrokerConnection, shard_id: int) -> None:
        """Structured accounting of one dropped-connection shard requeue."""
        in_flight = sum(
            1 for other in self._brokers if other.in_flight is not None
        )
        self._requeue_counter.inc()
        logger.warning(
            "broker_requeue broker=%s shard=%s in_flight=%d",
            broker.peer,
            shard_id,
            in_flight,
        )
        # run_shards is iterated inside the caller's open span (run_plan's),
        # so the event lands in the trace of the run being served.
        span = current_span()
        if span is not None:
            span.event(
                "broker_requeue",
                {"broker": broker.peer, "shard": shard_id, "in_flight": in_flight},
            )

    def _dispatch(
        self, pending: Deque[int], shard_tasks: Dict[int, List[Task]]
    ) -> None:
        for broker in self._ready_brokers():
            if not pending:
                return
            shard_id = pending.popleft()
            message = {
                "type": "shard",
                "shard": shard_id,
                "tasks": [task_to_wire(task) for task in shard_tasks[shard_id]],
            }
            try:
                send_frame(broker.sock, message)
            except OSError:
                pending.appendleft(shard_id)
                self._record_requeue(broker, shard_id)
                self._drop(broker)
                continue
            broker.in_flight = shard_id
            broker.dispatched_at = time.perf_counter()
            self._in_flight_gauge.inc(backend="broker")

    def _handle(
        self,
        broker: _BrokerConnection,
        frame: Dict[str, Any],
        shard_tasks: Dict[int, List[Task]],
    ) -> Optional[ShardResults]:
        kind = frame.get("type")
        if kind == "hello":
            broker.ready = True
            return None
        if kind == "error":
            # The broker stays marked busy, so the next run or close()
            # drops it.
            raise BrokerError(
                f"broker {broker.peer} failed shard {frame.get('shard')}: "
                f"{frame.get('message')}"
            )
        if kind != "result":
            raise BrokerProtocolError(
                f"unexpected {kind!r} frame from broker {broker.peer}"
            )
        shard_id = frame.get("shard")
        if shard_id != broker.in_flight:
            raise BrokerProtocolError(
                f"broker {broker.peer} answered shard {shard_id!r} but was "
                f"running {broker.in_flight!r}"
            )
        # A broker whose rows fail the checks stays marked busy, so the next
        # run or close() drops it.
        results = _checked_results(broker, shard_id, shard_tasks[shard_id], frame)
        broker.in_flight = None
        self._in_flight_gauge.dec(backend="broker")
        self._completed_counter.inc(backend="broker")
        elapsed = time.perf_counter() - broker.dispatched_at
        timing = frame.get("timing")
        if isinstance(timing, dict) and "wall_s" in timing:
            # Broker-measured compute time; the remainder of the round trip
            # is wire + scheduling overhead.
            self.last_shard_timing = {
                "wall_s": float(timing.get("wall_s", 0.0)),
                "cpu_s": float(timing.get("cpu_s", 0.0)),
            }
            self._dispatch_histogram.observe(
                max(0.0, elapsed - self.last_shard_timing["wall_s"]),
                backend="broker",
            )
        else:
            self.last_shard_timing = {"wall_s": elapsed, "cpu_s": 0.0}
            self._dispatch_histogram.observe(0.0, backend="broker")
        return results


def _checked_results(
    broker: _BrokerConnection,
    shard_id: int,
    tasks: List[Task],
    frame: Dict[str, Any],
) -> ShardResults:
    """A result frame's rows, checked as a local shard's rows are.

    Each task needs one block of one non-empty metric dict per seed.  The
    wire also has to carry numbers: a bool or a string (``"nan"`` too) would
    pass ``float()``, so it is refused here, and nothing a local run could
    not produce reaches the store.
    """
    rows_per_task = frame.get("rows")
    if not isinstance(rows_per_task, list) or len(rows_per_task) != len(tasks):
        raise BrokerProtocolError(
            f"broker {broker.peer} returned "
            f"{len(rows_per_task) if isinstance(rows_per_task, list) else '?'} "
            f"row blocks for the {len(tasks)} tasks of shard {shard_id}"
        )
    results = []
    for task, rows in zip(tasks, rows_per_task):
        try:
            checked = _checked_rows([task], rows)
            if any(
                isinstance(value, (bool, str))
                for row in rows
                for value in row.values()
            ):
                raise ValueError("metrics must be numbers, not bools or strings")
        except (TypeError, ValueError) as error:
            raise BrokerProtocolError(
                f"broker {broker.peer} returned bad rows for task {task.name} "
                f"of shard {shard_id}: {error}"
            ) from None
        results.append((task, checked))
    return results


def run_broker(
    coordinator: str,
    *,
    workers: int = 1,
    max_shards: Optional[int] = None,
    connect_timeout: float = 30.0,
    on_shard: Optional[Callable[[int, int], None]] = None,
) -> int:
    """Dial ``coordinator`` and execute shards until told to shut down.

    This is the ``repro broker`` entry point.  With ``workers > 1`` every
    shard runs on one :class:`ParallelExecutor` kept until the broker exits,
    split as the driver splits a plan (a grid shard as one fused launch per
    worker); otherwise it runs in this process.  Either way the shard's
    rows come back in task order.  ``max_shards`` makes the broker drop its
    connection after that many shards — the deterministic stand-in for a
    crash that the fault-tolerance tests (and chaos drills) use.  Returns
    the number of shards executed.
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    host, port = parse_address(coordinator)
    deadline = time.monotonic() + connect_timeout
    sock: Optional[socket.socket] = None
    while sock is None:
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
        except OSError:
            if time.monotonic() >= deadline:
                raise BrokerError(
                    f"could not reach coordinator at {coordinator} within "
                    f"{connect_timeout:.0f}s"
                ) from None
            time.sleep(0.05)
    executor = ParallelExecutor(workers) if workers > 1 else None
    executed = 0
    try:
        send_frame(sock, {"type": "hello", "workers": workers})
        while True:
            try:
                message = recv_frame(sock)
            except ConnectionError:
                return executed  # coordinator went away; nothing in flight
            kind = message.get("type")
            if kind == "shutdown":
                return executed
            if kind != "shard":
                raise BrokerProtocolError(f"unexpected {kind!r} frame from coordinator")
            tasks = [task_from_wire(payload) for payload in message["tasks"]]
            wall_start = time.perf_counter()
            cpu_start = time.process_time()
            try:
                rows_per_task = _execute_tasks(tasks, executor)
            except Exception as error:  # noqa: BLE001 - forwarded to coordinator
                send_frame(
                    sock,
                    {
                        "type": "error",
                        "shard": message["shard"],
                        "message": f"{type(error).__name__}: {error}",
                    },
                )
                return executed
            send_frame(
                sock,
                {
                    "type": "result",
                    "shard": message["shard"],
                    "rows": rows_per_task,
                    "timing": {
                        "wall_s": time.perf_counter() - wall_start,
                        "cpu_s": time.process_time() - cpu_start,
                    },
                },
            )
            executed += 1
            if on_shard is not None:
                on_shard(executed, len(tasks))
            if max_shards is not None and executed >= max_shards:
                # Simulated crash: vanish without a goodbye, exactly like a
                # dropped connection.  The coordinator requeues nothing (the
                # last result was already sent) or at most one shard.
                return executed
    finally:
        if executor is not None:
            executor.close()
        try:
            sock.close()
        except OSError:
            pass


def _execute_tasks(
    tasks: List[Task], executor: Optional[ParallelExecutor]
) -> List[List[Dict[str, float]]]:
    """Run one shard's tasks (in-process or on the local pool), in task order."""
    if executor is None or not tasks:
        return [rows for _, rows in _execute_shard(tasks)]
    shards = partition_tasks(tasks, _shard_count(tasks, executor))
    replication = resolve_replication(tasks[0].function_ref)
    rows = {}
    for shard_results in executor.run_shards(shards, replication):
        for task, metrics in shard_results:
            rows[task.ordinal] = metrics
    return [rows[task.ordinal] for task in tasks]
