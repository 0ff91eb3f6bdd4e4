"""A bounded LRU memo for access results.

The paper (and the result-bounded-interface line of work it cites)
treats every access as an expensive external call, so the runtime may
legitimately remember what a call returned: an
:class:`~repro.data.source.InMemorySource` is *deterministic* -- the
same ``(method, inputs)`` pair always yields the same tuple set until
the underlying instance mutates -- which makes memoization sound.  The
cache watches the source's *epoch token*
(:func:`~repro.sources.base.source_epoch`: ``epoch()`` when the source
exposes it, ``Instance.version`` otherwise) and drops everything when
it moves, so a stale answer is never served -- including answers from
a real backend (:mod:`repro.sources`) whose snapshot changed behind a
reconnect.

Metering policy: by default a cache hit is *free* -- it is not
dispatched to the source, so it is neither logged nor charged.  That is
the accounting a caching mediator would report (you only pay the remote
call you actually make).  Constructing with ``charge_hits=True``
restores the old books: every hit is re-logged as a full-price
invocation on the source, so ``charged_cost`` and ``total_invocations``
behave exactly as if the cache were absent (only wall time improves).
The benchmarks use this to keep their charged-cost series comparable.
Each cached entry carries the method's relation name resolved at miss
time, so charging a hit never re-touches schema state -- a hit is pure
cache reads plus one log append.

Concurrency: every structural mutation (the version-triggered clear,
the LRU insert/evict/reorder, the counters) happens under one internal
lock, so the cache may be shared by every worker of a
:class:`~repro.service.QueryService`.  Misses are *single-flight*: the
first thread to miss a key fetches from the source outside the lock
while later threads for the same key wait on its completion, so a
stampede of identical requests costs one source invocation -- the same
"identical accesses are paid once" contract the sequential runtime
gives.  Single-threaded callers see identical semantics to the PR 3
cache; the only addition is one uncontended lock acquisition per fetch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Optional, Tuple

from repro.data.source import AccessRecord
from repro.logic.terms import Constant
from repro.sources.base import source_epoch

_Key = Tuple[str, Tuple[Constant, ...]]
_Rows = FrozenSet[Tuple[Constant, ...]]
# Cached value: the rows plus the relation name hoisted at miss time
# (so charge_hits never re-reads schema state on a hit).
_Entry = Tuple[str, _Rows]


class _InFlight:
    """One in-progress fetch other threads can wait on."""

    __slots__ = ("event", "failed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.failed = False


class AccessCache:
    """Bounded LRU cache over ``(method, inputs) -> result tuples``."""

    def __init__(self, maxsize: int = 4096, charge_hits: bool = False) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.charge_hits = charge_hits
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stampedes_collapsed = 0
        self._store: "OrderedDict[_Key, _Entry]" = OrderedDict()
        self._inflight: Dict[_Key, _InFlight] = {}
        self._instance_version: Optional[int] = None
        self._lock = threading.Lock()
        # Per thread: whether that thread's latest completed fetch hit.
        self._last = threading.local()

    def __len__(self) -> int:
        return len(self._store)

    def fetch(
        self, source, method: str, inputs: Tuple[Constant, ...]
    ) -> _Rows:
        """The result of ``source.access(method, inputs)``, memoized.

        On a hit the source is not touched (unless ``charge_hits``, in
        which case an equivalent :class:`AccessRecord` is appended to
        the source's log so the accounting matches uncached execution).
        Concurrent misses of the same key collapse into one source
        invocation; the waiters count as hits (they never reached the
        source), except that a waiter whose fetcher failed retries the
        fetch itself so errors are seen by everyone who asked.
        """
        key = (method, inputs)
        waited = False
        while True:
            with self._lock:
                version = source_epoch(source)
                if version != self._instance_version:
                    self._store.clear()
                    self._instance_version = version
                entry = self._store.get(key)
                if entry is not None:
                    self.hits += 1
                    if waited:
                        self.stampedes_collapsed += 1
                    self._store.move_to_end(key)
                    relation, rows = entry
                    charge = self.charge_hits
                else:
                    flight = self._inflight.get(key)
                    if flight is None:
                        flight = _InFlight()
                        self._inflight[key] = flight
                        self.misses += 1
                        break  # this thread is the fetcher
            if entry is not None:
                self._last.hit = True
                if charge:
                    source.log.append(
                        AccessRecord(
                            method=method,
                            relation=relation,
                            inputs=inputs,
                            results=len(rows),
                        )
                    )
                return rows
            # Another thread is fetching this key: wait, then re-check.
            flight.event.wait()
            waited = not flight.failed
        try:
            result = source.access(method, inputs)
            relation = source.schema.method(method).relation
        except BaseException:
            with self._lock:
                flight.failed = True
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        with self._lock:
            # Only install if no epoch change (instance mutation or
            # backend snapshot move) invalidated this fetch in flight.
            if source_epoch(source) == self._instance_version:
                self._store[key] = (relation, result)
                if len(self._store) > self.maxsize:
                    self._store.popitem(last=False)
                    self.evictions += 1
            self._inflight.pop(key, None)
        flight.event.set()
        self._last.hit = False
        return result

    def last_fetch_hit(self) -> bool:
        """Whether the calling thread's most recent completed fetch hit.

        Set as each :meth:`fetch` returns, so a fetch nested inside
        another (a source wrapper consulting the same cache) cannot
        change the outer call's answer, and fetches on other threads
        never can.  Callers read it right after their own fetch to
        count hits per call instead of diffing the shared :attr:`hits`.
        """
        return getattr(self._last, "hit", False)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._store.clear()
            self.hits = self.misses = self.evictions = 0
            self.stampedes_collapsed = 0
            self._instance_version = None

    def summary(self) -> str:
        """A one-line human-readable digest."""
        total = self.hits + self.misses
        rate = self.hits / total if total else 0.0
        return (
            f"{len(self._store)}/{self.maxsize} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"({rate:.0%} hit rate), {self.evictions} evictions"
            + (", hits charged" if self.charge_hits else "")
        )

    def as_dict(self) -> Dict:
        """A JSON-able representation (used by the benchmarks)."""
        return {
            "maxsize": self.maxsize,
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stampedes_collapsed": self.stampedes_collapsed,
            "charge_hits": self.charge_hits,
        }

    def __repr__(self) -> str:
        return f"AccessCache({self.summary()})"
