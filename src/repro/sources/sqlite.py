"""The SQLite-backed source adapter: relations as tables, typed cells.

:class:`SQLiteSource` is the first *real* backend behind the access
protocol: every relation becomes a table, every access method a
parameterized ``SELECT`` over the method's input positions, metered
exactly like :class:`~repro.data.source.InMemorySource` (one
:class:`~repro.data.source.AccessRecord` per invocation, identical
charged cost) -- so every existing benchmark, cache, breaker and
worker-tier component runs over it unchanged.

Cells are stored as canonical JSON text, not native SQLite types:
``Constant`` values span str/int/float/bool and SQLite's affinity
rules would silently collapse ``1`` and ``1.0`` (and ``True`` and
``1``), breaking the byte-identical differential contract against the
in-memory oracle.  JSON-encoding each cell keeps the round trip exact.

Connection lifecycle is defensive by construction:

* ``sqlite3.OperationalError`` (and a closed connection's
  ``ProgrammingError``) triggers **reconnect with capped exponential
  backoff**: the connection is rebuilt, tables are reloaded from the
  retained ground-truth :class:`~repro.data.instance.Instance`, and
  the statement is retried.  After ``max_reconnects`` consecutive
  failures the access raises typed
  :class:`~repro.errors.SourceUnavailable` -- retryable upstream.
* **Read-snapshot epochs**: :meth:`epoch` is ``instance.version``; a
  backend mutation bumps it, the next access reloads the tables, and
  everything derived from older answers (the
  :class:`~repro.exec.cache.AccessCache`) is invalidated by the epoch
  change.  A *reconnect without mutation* keeps the epoch -- the
  reloaded tables are provably the same snapshot, which is what makes
  answers byte-identical across mid-plan connection loss.

Batched access costs what its rows cost: :meth:`access_batch` sends
one ``IN``-list statement per parameter chunk (chunks never exceed the
connection's host-parameter limit, so an oversized batch is never
mistaken for a dead connection), decodes each distinct cell text once
per statement through a per-call memo, and matches keys to rows by one
grouping pass -- O(rows + keys), not keys x rows.

Chaos hooks: :meth:`sever_connection` kills the live connection (the
next statement walks the reconnect path) and ``drop_every=N`` severs
it automatically before every N-th statement -- a deterministic
flaky-server simulation the chaos matrix drives.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from itertools import chain
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.data.instance import Instance, _to_constant
from repro.data.source import AccessRecord
from repro.errors import AccessViolation, SourceUnavailable
from repro.logic.terms import Constant
from repro.schema.core import AccessMethod, Schema
from repro.sources.base import MeteredSourceMixin

#: Errors that mean "the connection is gone", not "the query is wrong".
_CONNECTION_ERRORS = (sqlite3.OperationalError, sqlite3.ProgrammingError)


def _encode_cell(value) -> str:
    """One typed cell as canonical JSON text (exact round trip)."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _decode_cell(text: str) -> Constant:
    """Inverse of :func:`_encode_cell`."""
    return _to_constant(json.loads(text))


def _decode_rows(rows: List[Tuple[str, ...]]) -> List[Tuple[Constant, ...]]:
    """Decode fetched rows, each distinct cell text once.

    Rows repeat the same ids heavily (a venue per article, a document
    per author), so a per-statement memo turns most decodes into one
    dict lookup.  ``Constant`` is immutable, so sharing cells is safe.
    """
    texts = set(chain.from_iterable(rows))
    memo = {text: _decode_cell(text) for text in texts}
    return [tuple(map(memo.__getitem__, row)) for row in rows]


#: Host-parameter limit assumed where the connection cannot report its
#: own (``Connection.getlimit`` is Python 3.11+): SQLite's pre-3.32
#: compiled default, which every build accepts.
_FALLBACK_PARAM_LIMIT = 999


def _param_limit(conn: sqlite3.Connection) -> int:
    """How many ``?`` parameters one statement on ``conn`` may carry.

    A severed connection cannot report its limit; the fallback is safe
    for the fresh connection the reconnect path opens in its place.
    """
    if not hasattr(conn, "getlimit"):
        return _FALLBACK_PARAM_LIMIT
    try:
        return conn.getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
    except sqlite3.ProgrammingError:  # closed connection
        return _FALLBACK_PARAM_LIMIT


def _key_encodings(value) -> List[str]:
    """Every JSON text a lookup key must match in a WHERE clause.

    The oracle compares :class:`~repro.logic.terms.Constant` values by
    Python equality, under which ``1 == 1.0 == True`` -- but their JSON
    cell texts differ (``1`` / ``1.0`` / ``true``).  A parameterized
    lookup must therefore accept *every* spelling of a Python-equal
    value, or the differential contract breaks on mixed-type columns.
    """
    encodings = {_encode_cell(value)}
    if isinstance(value, (bool, int, float)):
        try:
            twins = (bool(value), int(value), float(value))
        except (ValueError, OverflowError):  # inf/nan have no int twin
            twins = ()
        for twin in twins:
            if twin == value:
                encodings.add(_encode_cell(twin))
    return sorted(encodings)


class SQLiteSource(MeteredSourceMixin):
    """An instance served through SQLite, behind the access protocol."""

    def __init__(
        self,
        schema: Schema,
        instance: Instance,
        path: str = ":memory:",
        max_reconnects: int = 4,
        backoff: float = 0.01,
        max_backoff: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
        drop_every: Optional[int] = None,
    ) -> None:
        if max_reconnects < 0:
            raise ValueError("max_reconnects must be non-negative")
        if drop_every is not None and drop_every < 1:
            raise ValueError("drop_every must be at least 1")
        self.schema = schema
        self.instance = instance
        self.path = path
        self.max_reconnects = max_reconnects
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.drop_every = drop_every
        self._sleep = sleep
        self.log: List[AccessRecord] = []
        #: Reconnects performed over the source's lifetime (surfaced by
        #: the adapter benchmark's resilience accounting).
        self.reconnects = 0
        #: Batched round trips answered via :meth:`access_batch`.
        self.batched_calls = 0
        self._statements = 0
        self._conn: Optional[sqlite3.Connection] = None
        self._loaded_version: Optional[int] = None
        # One lock for connection + log: sqlite3 connections are not
        # concurrency-safe, and the source sits under a multi-threaded
        # QueryService -- statements serialize, waits overlap upstream.
        self._lock = threading.RLock()
        self._connect()

    # ------------------------------------------------------------- epochs
    def epoch(self) -> int:
        """The read-snapshot token: the ground-truth instance version.

        Stable across reconnects (a reconnect reloads the *same*
        snapshot), bumped by backend mutations -- exactly the monotone
        token the :class:`~repro.exec.cache.AccessCache` keys
        invalidation on.
        """
        return self.instance.version

    # -------------------------------------------------- connection lifecycle
    def _connect(self) -> None:
        """(Re)open the connection and load the current snapshot."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except Exception:  # pragma: no cover -- already dead
                    pass
            # check_same_thread=False: the source serializes statements
            # under its own lock, so cross-thread use is safe.
            self._conn = sqlite3.connect(
                self.path, check_same_thread=False
            )
            self._load_tables()

    def _load_tables(self) -> None:
        """Materialize every relation into its table; caller holds lock."""
        conn = self._conn
        for relation in self.schema.relations:
            arity = relation.arity
            columns = ", ".join(f"c{i} TEXT" for i in range(arity))
            conn.execute(f'DROP TABLE IF EXISTS "{relation.name}"')
            conn.execute(f'CREATE TABLE "{relation.name}" ({columns})')
            rows = [
                tuple(_encode_cell(cell.value) for cell in row)
                for row in self.instance.tuples(relation.name)
            ]
            if rows:
                marks = ", ".join("?" for _ in range(arity))
                conn.executemany(
                    f'INSERT INTO "{relation.name}" VALUES ({marks})',
                    rows,
                )
        conn.commit()
        self._loaded_version = self.instance.version

    def sever_connection(self) -> None:
        """Chaos hook: kill the live connection (next statement reconnects)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()

    def _execute(self, sql: str, params: Sequence[str]) -> List[Tuple]:
        """Run one statement with reconnect-on-error backoff.

        The whole check-snapshot / maybe-drop / execute sequence runs
        under the source lock.  A connection-level failure reconnects
        (reloading the retained snapshot) with capped exponential
        backoff; after ``max_reconnects`` consecutive failures the
        access surfaces as typed :class:`SourceUnavailable`.
        """
        with self._lock:
            if self.instance.version != self._loaded_version:
                # Backend mutation: reload so this epoch's accesses
                # answer from the new snapshot, never a mix.
                self._connect()
            self._statements += 1
            if (
                self.drop_every is not None
                and self._statements % self.drop_every == 0
            ):
                self.sever_connection()
            last_error: Optional[Exception] = None
            for attempt in range(self.max_reconnects + 1):
                try:
                    cursor = self._conn.execute(sql, tuple(params))
                    return cursor.fetchall()
                except _CONNECTION_ERRORS as error:
                    last_error = error
                    if attempt >= self.max_reconnects:
                        break
                    self._sleep(
                        min(self.max_backoff, self.backoff * 2**attempt)
                    )
                    self.reconnects += 1
                    self._connect()
            raise SourceUnavailable(
                f"sqlite backend unreachable after "
                f"{self.max_reconnects} reconnect attempts: {last_error}",
            )

    def close(self) -> None:
        """Release the connection (the source can reconnect on demand)."""
        self.sever_connection()

    # ------------------------------------------------------------- access
    def _check_method(
        self, method_name: str, inputs: Sequence[object]
    ) -> Tuple[AccessMethod, Tuple[Constant, ...]]:
        method = self.schema.method(method_name)
        values = tuple(_to_constant(v) for v in inputs)
        if len(values) != len(method.input_positions):
            raise AccessViolation(
                f"method {method_name} needs "
                f"{len(method.input_positions)} inputs, got {len(values)}",
                method=method_name,
                relation=method.relation,
                inputs=values,
            )
        return method, values

    def _select(
        self, method: AccessMethod, values: Tuple[Constant, ...]
    ) -> FrozenSet[Tuple[Constant, ...]]:
        clauses = []
        params: List[str] = []
        for position, value in zip(method.input_positions, values):
            encodings = _key_encodings(value.value)
            marks = ", ".join("?" for _ in encodings)
            clauses.append(f"c{position} IN ({marks})")
            params.extend(encodings)
        sql = f'SELECT * FROM "{method.relation}"'
        if clauses:
            sql += f" WHERE {' AND '.join(clauses)}"
        return frozenset(_decode_rows(self._execute(sql, params)))

    def access(
        self, method_name: str, inputs: Sequence[object] = ()
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """Invoke a method: a parameterized SELECT over its relation."""
        method, values = self._check_method(method_name, inputs)
        matching = self._select(method, values)
        with self._lock:
            self.log.append(
                AccessRecord(
                    method=method_name,
                    relation=method.relation,
                    inputs=values,
                    results=len(matching),
                )
            )
        return matching

    def access_batch(
        self, method_name: str, inputs_list: Sequence[Sequence[object]]
    ) -> Dict[Tuple[Constant, ...], FrozenSet[Tuple[Constant, ...]]]:
        """Answer several distinct input tuples in one round trip.

        Single-input methods send one ``IN``-list SELECT per parameter
        chunk -- a chunk holds at most the connection's host-parameter
        limit, so a batch under the limit is exactly one statement --
        then group the decoded rows once by the input column and answer
        each key by lookup: O(rows + keys) matching, one decode per
        distinct cell text.  Grouping uses ``Constant`` equality, so
        ``1``, ``1.0`` and ``True`` match one another exactly as in the
        in-memory oracle.  Wider methods fall back to per-key SELECTs
        inside one lock hold.  Metering is per *logical access* either
        way -- one record per input tuple, identical to the per-key
        loop -- so batching changes round trips, never the books.
        """
        method = self.schema.method(method_name)
        keyed = [self._check_method(method_name, v)[1] for v in inputs_list]
        results: Dict[Tuple[Constant, ...], FrozenSet] = {}
        with self._lock:
            self.batched_calls += 1
            if len(method.input_positions) == 1 and keyed:
                position = method.input_positions[0]
                params = list(
                    dict.fromkeys(
                        text
                        for values in keyed
                        for text in _key_encodings(values[0].value)
                    )
                )
                limit = _param_limit(self._conn)
                groups: Dict[Constant, set] = {}
                for start in range(0, len(params), limit):
                    chunk = params[start : start + limit]
                    marks = ", ".join("?" for _ in chunk)
                    rows = self._execute(
                        f'SELECT * FROM "{method.relation}" '
                        f"WHERE c{position} IN ({marks})",
                        chunk,
                    )
                    for row in _decode_rows(rows):
                        groups.setdefault(row[position], set()).add(row)
                for values in keyed:
                    results[values] = frozenset(groups.get(values[0], ()))
            else:
                for values in keyed:
                    results[values] = self._select(method, values)
            for values in keyed:
                self.log.append(
                    AccessRecord(
                        method=method_name,
                        relation=method.relation,
                        inputs=values,
                        results=len(results[values]),
                    )
                )
        return results

    def __repr__(self) -> str:
        return (
            f"SQLiteSource({self.schema.name}, {self.path!r}, "
            f"{len(self.log)} accesses, {self.reconnects} reconnects)"
        )
