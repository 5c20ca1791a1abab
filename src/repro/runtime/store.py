"""Content-addressed result store: one sqlite table of key → metrics JSON.

Every :class:`~repro.runtime.shard.Task` has a canonical **cache key** — the
SHA-256 of the canonical JSON encoding of::

    {"function": <module:qualname>, "parameters": {...},
     "seeds": [...], "code_version": <repro.__version__>}

Two tasks share a key exactly when they would compute the same metrics:
same replication function, same parameters (order-insensitive, tuples and
numpy scalars normalised), same seed list, same code version.  Sweep names,
shard layout and worker counts are deliberately *not* part of the key, so a
result computed by any execution strategy serves every other one.

The store is a single ``results`` table: the key, the metric rows as JSON,
and provenance columns (function, sweep name, canonical parameters, seeds,
code version, creation time).  A result is two floats per replicate, so the
index lookup and the JSON decode are the whole cost of a read; there is no
in-memory tier to keep coherent.

Stores written by earlier versions open as they are.  Their inline rows
serve unchanged.  Rows that point into a ``<path>.segments/`` directory
(``metrics`` is empty) count as misses and are overwritten when the task is
recomputed; the directory itself is no longer read and can be deleted.

Writes happen only from the opening process — workers return results to the
parent, which flushes each completed shard — but that process may be
multi-threaded: the API daemon's worker threads read and write one shared
store concurrently.  Every access therefore goes through one connection
behind an internal lock (``check_same_thread=False``), and file-backed
stores run in WAL mode with a busy timeout so a second *process* pointing at
the same file (a CLI run next to a daemon) blocks briefly instead of failing
with ``database is locked``.
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
import threading
from datetime import datetime, timezone
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import __version__
from repro.runtime.shard import Task

PathLike = Union[str, Path]

_BUSY_TIMEOUT_SECONDS = 30.0
_SELECT_CHUNK = 500

# Stores from earlier versions may carry two more columns (``segment`` and
# ``entry``); the named-column insert leaves them NULL, so no migration is
# needed to write to them.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    function TEXT NOT NULL,
    name TEXT NOT NULL,
    parameters TEXT NOT NULL,
    seeds TEXT NOT NULL,
    code_version TEXT NOT NULL,
    metrics TEXT NOT NULL,
    created_at TEXT NOT NULL
)
"""

# Naming the columns keeps the insert valid (or loudly broken) if the schema
# ever gains a column; a positional VALUES (?,...) would silently misalign.
_INSERT = """
INSERT OR REPLACE INTO results
    (key, function, name, parameters, seeds, code_version, metrics, created_at)
VALUES (?, ?, ?, ?, ?, ?, ?, ?)
"""

# One result row per query: the members of a JSON object key → metrics.
# Keys are hex digests, so they need no escaping inside the quotes.
_SELECT_OBJECT = """
SELECT group_concat('"' || key || '":' || metrics, ',') FROM results
WHERE metrics != '' AND key IN ({placeholders})
"""


def canonical_value(value: Any) -> Any:
    """Normalise ``value`` for canonical JSON encoding.

    Mappings are key-sorted, sequences become lists, numpy scalars and
    0-d arrays become Python scalars.  Unsupported types raise ``TypeError``
    rather than falling back to ``str`` — a silent fallback could make two
    different parameterisations collide on one key.  Non-finite floats raise
    ``ValueError``: RFC 8259 JSON has no ``NaN``/``Infinity`` tokens, so a
    key built from them could not round-trip through other JSON parsers
    (and ``NaN != NaN`` makes such a parameter unmatchable anyway).
    """
    if isinstance(value, dict):
        normalized = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(
                    f"cache-key parameter names must be strings, got {key!r}"
                )
            normalized[key] = canonical_value(value[key])
        return normalized
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, np.ndarray):
        return [canonical_value(item) for item in value.tolist()]
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return canonical_value(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(
            f"non-finite float {value!r} cannot appear in a cache key: "
            "JSON (RFC 8259) has no NaN/Infinity tokens, so the key would "
            "not round-trip; replace it with a finite sentinel value"
        )
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot build a canonical cache key from {type(value).__name__} "
        f"value {value!r}; use scalars, strings, sequences or mappings"
    )


def canonical_json(value: Any) -> str:
    """Deterministic, RFC-compliant JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(
        canonical_value(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def task_keys(tasks: Sequence[Task], code_version: str = __version__) -> List[str]:
    """The content-addressed cache keys of ``tasks``, in order.

    Each key hashes the canonical JSON of the task's payload, whose sorted
    members are ``code_version``, ``function``, ``parameters`` and
    ``seeds``.  Everything before the seed list is encoded and hashed once
    per ``(function, parameters object)``; each task copies that hash state
    and feeds it only its seed list and the closing brace.  Plain ``int``
    seeds (``bool`` is not one) are joined directly, byte for byte what
    ``json`` writes; other seed types go through :func:`canonical_json`.
    Keying the memo on ``id`` is sound: ``tasks`` keeps every parameters
    dict alive for the call, and nothing mutates a task's parameters.
    """
    states: Dict[Tuple[str, int], Any] = {}
    keys = []
    for task in tasks:
        memo = (task.function_ref, id(task.parameters))
        state = states.get(memo)
        if state is None:
            head = canonical_json(
                {
                    "code_version": code_version,
                    "function": task.function_ref,
                    "parameters": task.parameters,
                    "seeds": [],
                }
            )
            state = states[memo] = hashlib.sha256(head[: -len("[]}")].encode("utf-8"))
        seeds = task.seeds
        if len(seeds) == 1 and type(seeds[0]) is int:
            tail = "[%d]}" % seeds  # a loop task: one seed, the common case
        elif all(type(seed) is int for seed in seeds):
            tail = "[" + ",".join(map(str, seeds)) + "]}"
        else:
            tail = canonical_json(list(seeds)) + "}"
        digest = state.copy()
        digest.update(tail.encode("utf-8"))
        keys.append(digest.hexdigest())
    return keys


def task_key(task: Task, code_version: str = __version__) -> str:
    """The content-addressed cache key of ``task``."""
    return task_keys([task], code_version)[0]


class StoreError(Exception):
    """The result store file cannot be opened (not a sqlite file, unreadable)."""


class StoreCounters(NamedTuple):
    """Atomic snapshot of a store's :meth:`ResultStore.get_many` outcomes."""

    hits: int
    misses: int

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (the daemon's ``/stats`` payload)."""
        return dict(self._asdict())


Metrics = List[Dict[str, float]]


class ResultStore:
    """A persistent, content-addressed cache of task metrics.

    Parameters
    ----------
    path:
        Sqlite file (created, with parents, if missing) or ``":memory:"``
        for an ephemeral store.
    code_version:
        Version string mixed into every key (default: ``repro.__version__``),
        so upgrading the library naturally invalidates old entries.

    Raises :class:`StoreError` when ``path`` exists but is not a usable
    sqlite file.

    Thread safety: every operation runs behind one internal lock (a single
    sqlite connection, ``check_same_thread=False``), so a store instance may
    be shared freely between threads (the API daemon shares one store across
    its whole worker pool).  The hit/miss counters sit behind a second,
    small lock, so :meth:`counters` never waits for another thread's query.
    Sharing one *file* between processes is safe for reads and writes — WAL
    mode plus a 30-second busy timeout — though counters are per-instance.
    """

    def __init__(
        self, path: PathLike = ":memory:", *, code_version: str = __version__
    ) -> None:
        self.path = path if path == ":memory:" else Path(path)
        self.code_version = code_version
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()
        self._counter_lock = threading.Lock()
        self._connection: Optional[sqlite3.Connection] = None
        try:
            if isinstance(self.path, Path):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._connection = sqlite3.connect(
                str(self.path),
                timeout=_BUSY_TIMEOUT_SECONDS,
                check_same_thread=False,
            )
            # WAL lets a concurrent reader proceed during a write (it is a
            # no-op "memory" mode for :memory: stores); the busy timeout makes
            # a second writer on the same file wait instead of raising
            # "database is locked".
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute(
                f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_SECONDS * 1000)}"
            )
            self._connection.execute(_SCHEMA)
            self._connection.commit()
        except (OSError, sqlite3.Error) as error:
            self.close()
            raise StoreError(f"cannot open result store {path}: {error}") from error

    def _require_connection(self) -> sqlite3.Connection:
        if self._connection is None:
            raise RuntimeError(f"result store {self.path} is closed")
        return self._connection

    def key_for(self, task: Task) -> str:
        """Cache key of ``task`` under this store's code version."""
        return task_key(task, self.code_version)

    def keys_for(self, tasks: Sequence[Task]) -> List[str]:
        """Cache keys of ``tasks`` under this store's code version, in one pass."""
        return task_keys(tasks, self.code_version)

    def get_many(self, keys: Sequence[str]) -> Dict[str, Metrics]:
        """Bulk lookup: metrics for every stored key in ``keys``.

        One query per 500 distinct keys and a single ``json.loads`` of the
        stored JSON.  Counts a hit or a miss per key occurrence, duplicates
        included.
        """
        unique = list(dict.fromkeys(keys))
        objects: List[str] = []
        # sqlite3 releases the GIL for each row it steps through.  One
        # aggregated row per query walks the whole chunk in C, while the
        # daemon's other threads run Python, instead of re-taking the GIL
        # (and waiting a switch interval for it) once per key.
        with self._lock:
            connection = self._require_connection()
            for start in range(0, len(unique), _SELECT_CHUNK):
                chunk = unique[start : start + _SELECT_CHUNK]
                placeholders = ",".join("?" * len(chunk))
                (members,) = connection.execute(
                    _SELECT_OBJECT.format(placeholders=placeholders), chunk
                ).fetchone()
                if members is not None:
                    objects.append(members)
        found = json.loads("{" + ",".join(objects) + "}")
        hits = sum(1 for key in keys if key in found)
        with self._counter_lock:
            self.hits += hits
            self.misses += len(keys) - hits
        return found

    def put_many(self, entries: Iterable[Tuple[Task, Metrics]]) -> List[str]:
        """Store a batch of results in one transaction (a shard flush)."""
        entries = list(entries)
        keys = self.keys_for([task for task, _ in entries])
        now = datetime.now(timezone.utc).isoformat()
        rows = [
            (
                key,
                task.function_ref,
                task.name,
                canonical_json(task.parameters),
                json.dumps(list(task.seeds)),
                self.code_version,
                json.dumps(metrics),
                now,
            )
            for key, (task, metrics) in zip(keys, entries)
        ]
        with self._lock:
            connection = self._require_connection()
            connection.executemany(_INSERT, rows)
            connection.commit()
        return keys

    def counters(self) -> StoreCounters:
        """Atomic snapshot of this instance's hit/miss counters."""
        with self._counter_lock:
            return StoreCounters(hits=self.hits, misses=self.misses)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = (
                self._require_connection()
                .execute(
                    "SELECT 1 FROM results WHERE key = ? AND metrics != ''", (key,)
                )
                .fetchone()
            )
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            row = (
                self._require_connection()
                .execute("SELECT COUNT(*) FROM results WHERE metrics != ''")
                .fetchone()
            )
        return int(row[0])

    def close(self) -> None:
        """Close the sqlite connection (idempotent)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._connection is None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
