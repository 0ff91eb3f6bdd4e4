"""The execution tiers: a thread pool, and worker processes fed specs.

CPython's GIL means the threads inside :class:`~repro.service.
QueryService` only scale when requests *wait*; CPU-bound chase, search
and columnar work serializes.  Both tiers here run every request
through the one execution function,
:func:`~repro.service.runtime.run_request`, so what a request returns
does not depend on the tier:

* :class:`ThreadWorkerPool` calls it on a pool thread over the
  service's own runtime.  Nothing is serialized, and every service knob
  applies as given; the tier adds a watchdog and hedged dispatch.

* :class:`ProcessWorkerPool` calls it inside worker **processes**.
  What crosses the boundary is data, never live objects.  A
  :func:`source_to_spec` *source spec* (plain JSON-able dict: schema
  serialization, canonical instance dump, wrapper stack) is shipped
  once per worker via the executor's initializer, which builds the
  worker's runtime: the rehydrated source (with its own per-method
  indexes) and one breaker registry that lives as long as the worker.
  Each request then ships its plan IR (:mod:`repro.plans.ir`), encoded
  bindings, budget and retry dicts and the deadline's remaining
  seconds; the answer comes back as sorted rows
  (:func:`~repro.plans.ir.table_to_ir`), its markings, an
  ``ExecStats.as_dict()`` payload and the error's type name.  No
  pickled closures, no live sources -- which is also what makes the
  tier ``spawn``-safe (the default start method here).

* **What does NOT cross the process boundary** -- an access cache, a
  breaker registry, a sleep hook -- is rejected by the service at
  construction with typed :class:`~repro.errors.UnsupportedOnTier`
  rather than dropped.  Per-worker breakers, the workers' own source
  wrapper counters and the absence of a shared cache are still sound:
  caches and breakers are *monotone observations* of a deterministic
  source (docs/theory.md, "Concurrent serving"), so partitioning
  observations among processes can change efficiency, never answers;
  the seeded fault schedule is keyed by ``(seed, method, inputs)``
  (not by call order), so a faulty access fails the same way in any
  process.

* **Crashes are typed, not hung.**  A killed worker breaks the whole
  ``ProcessPoolExecutor``; :class:`ProcessWorkerPool` maps that to a
  typed :class:`~repro.errors.WorkerCrashed` for the affected request,
  recreates the pool, and counts the restart -- surfaced through
  ``QueryService.health()``.
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from dataclasses import asdict, replace
from functools import partial
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Mapping, Optional

import repro.errors as errors_module
from repro.data.decorators import (
    CachingSource,
    LatencySource,
    StormyLatencySource,
)
from repro.data.instance import Instance, _to_constant
from repro.data.source import InMemorySource, ShardedInMemorySource
from repro.errors import (
    AccessError,
    DeadlineExceeded,
    ExecutionError,
    ReproError,
    WorkerCrashed,
    WorkerStalled,
)
from repro.exec.budget import ResourceBudget
from repro.exec.resilience import RetryPolicy
from repro.exec.stats import ExecStats
from repro.faults.policy import FaultPolicy
from repro.faults.source import FaultInjectingSource
from repro.logic.terms import Constant
from repro.plans.ir import (
    ir_to_plan,
    plan_to_ir,
    table_from_ir,
    table_to_ir,
    term_from_ir,
    term_to_ir,
)
from repro.schema.serialize import schema_from_dict, schema_to_dict
from repro.sources.base import (
    AdaptiveConcurrencySource,
    CoalescingSource,
    PacedSource,
)
from repro.sources.http import HTTPSource, StubTransport
from repro.service.request import QueryRequest, QueryResponse
from repro.service.runtime import Runtime, run_request
from repro.sources.sqlite import SQLiteSource

#: Format marker stamped into every source spec.
SPEC_KIND = "repro.source-spec"
SPEC_VERSION = 1


class SourceSpecError(ValueError):
    """Raised when a source (stack) cannot be described as a spec."""


# -------------------------------------------------------------- source spec
def source_to_spec(source) -> Dict[str, Any]:
    """Describe a source (possibly a wrapper stack) as a plain dict.

    Supported: :class:`InMemorySource`, :class:`ShardedInMemorySource`,
    and stacks of :class:`LatencySource` / :class:`CachingSource` /
    :class:`FaultInjectingSource` over them.  Stateful wrappers whose
    behaviour depends on global call order (``FlakySource``,
    ``BudgetedSource``) are rejected: replaying them per worker would
    change semantics, and budgets are shipped per request instead.
    """
    if isinstance(source, StormyLatencySource):
        # Per-instance call counters make the storm *schedule* differ
        # between workers, but latency is timing-only nondeterminism:
        # answers are unchanged, which is what makes this (unlike
        # FlakySource) safe to replay per worker -- and what hedged
        # dispatch exploits.
        return {
            "wrap": "storm",
            "base_latency": source.base_latency,
            "slow_latency": source.slow_latency,
            "slow_every": source.slow_every,
            "inner": source_to_spec(source.inner),
        }
    if isinstance(source, LatencySource):
        return {
            "wrap": "latency",
            "latency": source.latency,
            "inner": source_to_spec(source.inner),
        }
    if isinstance(source, CachingSource):
        return {"wrap": "caching", "inner": source_to_spec(source.inner)}
    if isinstance(source, PacedSource):
        return {
            "wrap": "paced",
            "rate": source.rate,
            "capacity": source.capacity,
            "max_wait": source.max_wait,
            "inner": source_to_spec(source.inner),
        }
    if isinstance(source, AdaptiveConcurrencySource):
        # The evolved AIMD limit is deliberately not shipped: each
        # worker starts its own probe from the configured ceiling, the
        # same way per-worker breakers start closed.
        return {
            "wrap": "aimd",
            "max_concurrency": source.max_concurrency,
            "increase": source.increase,
            "inner": source_to_spec(source.inner),
        }
    if isinstance(source, CoalescingSource):
        return {"wrap": "coalescing", "inner": source_to_spec(source.inner)}
    if isinstance(source, FaultInjectingSource):
        return {
            "wrap": "faults",
            "policy": asdict(source.policy),
            "inner": source_to_spec(source.inner),
        }
    if isinstance(source, ShardedInMemorySource):
        return {
            "format": SPEC_KIND,
            "version": SPEC_VERSION,
            "kind": "sharded",
            "schema": schema_to_dict(source.schema),
            "instance": source.instance.to_dict(),
            "shards": source.shards,
            "indexed": source.indexed,
        }
    if isinstance(source, InMemorySource):
        return {
            "format": SPEC_KIND,
            "version": SPEC_VERSION,
            "kind": "memory",
            "schema": schema_to_dict(source.schema),
            "instance": source.instance.to_dict(),
            "indexed": source.indexed,
        }
    if isinstance(source, SQLiteSource):
        # Each worker rehydrates its *own* database from the canonical
        # instance dump (":memory:" by construction) -- workers never
        # share a connection, so there is nothing to contend on.
        return {
            "format": SPEC_KIND,
            "version": SPEC_VERSION,
            "kind": "sqlite",
            "schema": schema_to_dict(source.schema),
            "instance": source.instance.to_dict(),
            "max_reconnects": source.max_reconnects,
            "backoff": source.backoff,
            "max_backoff": source.max_backoff,
            "drop_every": source.drop_every,
        }
    if isinstance(source, HTTPSource):
        spec_config = getattr(source.transport, "spec_config", None)
        if not callable(spec_config):
            raise SourceSpecError(
                f"HTTPSource transport {type(source.transport).__name__} "
                "is not spec-able: it exposes no spec_config()"
            )
        return {
            "format": SPEC_KIND,
            "version": SPEC_VERSION,
            "kind": "http",
            "schema": schema_to_dict(source.transport.schema),
            "instance": source.transport.instance.to_dict(),
            "transport": spec_config(),
            "max_retry_after_waits": source.max_retry_after_waits,
            "max_snapshot_restarts": source.max_snapshot_restarts,
        }
    raise SourceSpecError(
        f"cannot describe {type(source).__name__} as a worker source spec"
    )


def spec_to_source(spec: Mapping[str, Any]):
    """Rehydrate the source (stack) described by :func:`source_to_spec`."""
    wrap = spec.get("wrap")
    if wrap == "storm":
        return StormyLatencySource(
            spec_to_source(spec["inner"]),
            float(spec["base_latency"]),
            float(spec["slow_latency"]),
            int(spec["slow_every"]),
        )
    if wrap == "latency":
        return LatencySource(
            spec_to_source(spec["inner"]), float(spec["latency"])
        )
    if wrap == "caching":
        return CachingSource(spec_to_source(spec["inner"]))
    if wrap == "paced":
        return PacedSource(
            spec_to_source(spec["inner"]),
            float(spec["rate"]),
            capacity=float(spec["capacity"]),
            max_wait=float(spec["max_wait"]),
        )
    if wrap == "aimd":
        return AdaptiveConcurrencySource(
            spec_to_source(spec["inner"]),
            max_concurrency=int(spec["max_concurrency"]),
            increase=float(spec["increase"]),
        )
    if wrap == "coalescing":
        return CoalescingSource(spec_to_source(spec["inner"]))
    if wrap == "faults":
        return FaultInjectingSource(
            spec_to_source(spec["inner"]), FaultPolicy(**spec["policy"])
        )
    if spec.get("format") != SPEC_KIND or spec.get("version") != SPEC_VERSION:
        raise SourceSpecError(
            f"not a source spec (format={spec.get('format')!r}, "
            f"version={spec.get('version')!r})"
        )
    schema = schema_from_dict(spec["schema"])
    instance = Instance.from_dict(spec["instance"])
    if spec["kind"] == "sharded":
        return ShardedInMemorySource(
            schema,
            instance,
            shards=int(spec["shards"]),
            indexed=bool(spec.get("indexed", True)),
        )
    if spec["kind"] == "memory":
        return InMemorySource(
            schema, instance, indexed=bool(spec.get("indexed", True))
        )
    if spec["kind"] == "sqlite":
        drop_every = spec.get("drop_every")
        return SQLiteSource(
            schema,
            instance,
            max_reconnects=int(spec.get("max_reconnects", 4)),
            backoff=float(spec.get("backoff", 0.01)),
            max_backoff=float(spec.get("max_backoff", 0.5)),
            drop_every=None if drop_every is None else int(drop_every),
        )
    if spec["kind"] == "http":
        config = spec["transport"]
        policy = config.get("fault_policy")
        transport = StubTransport(
            schema,
            instance,
            latency=float(config.get("latency", 0.0)),
            page_size=config.get("page_size"),
            rate_limit=config.get("rate_limit"),
            burst=config.get("burst"),
            fault_policy=None if policy is None else FaultPolicy(**policy),
        )
        return HTTPSource(
            transport,
            max_retry_after_waits=int(spec.get("max_retry_after_waits", 8)),
            max_snapshot_restarts=int(spec.get("max_snapshot_restarts", 8)),
        )
    raise SourceSpecError(f"unknown source spec kind {spec['kind']!r}")


# ------------------------------------------------- process-tier wire format
# What crosses the process boundary for one request: the plan IR, term-IR
# bindings, the budget and retry dicts, and the deadline's remaining
# seconds; the answer comes back as sorted rows, markings, a stats dict
# and the error's type name.  Exception and plan *instances* never cross.


def _encode_bindings(
    bindings: Optional[Mapping[object, object]]
) -> Optional[List[List[Dict[str, Any]]]]:
    """Encode a constant-substitution mapping as term-IR pairs."""
    if not bindings:
        return None
    return [
        [term_to_ir(_to_constant(key)), term_to_ir(_to_constant(value))]
        for key, value in bindings.items()
    ]


def _decode_bindings(
    encoded: Optional[List[List[Dict[str, Any]]]]
) -> Optional[Dict[Constant, Constant]]:
    """Inverse of :func:`_encode_bindings`."""
    if not encoded:
        return None
    return {
        term_from_ir(key): term_from_ir(value) for key, value in encoded
    }


# Encoded-plan memo: a hot plan (plan-cache hit) would otherwise be
# re-encoded for every request and every hedge duplicate.  Keyed weakly
# by the (frozen, hashable) Plan object so the memo lives exactly as
# long as the plan-cache entry that keeps the plan alive.
_ENCODED_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_ENCODED_PLANS_LOCK = threading.Lock()


def _encoded_plan_ir(plan) -> Dict[str, Any]:
    """``plan_to_ir(plan)``, memoized per plan object.

    Sound because plans are immutable and :func:`~repro.plans.ir.
    ir_to_plan` never mutates its input.  Unhashable or
    unweakreferenceable plans fall back to plain encoding.
    """
    try:
        with _ENCODED_PLANS_LOCK:
            cached = _ENCODED_PLANS.get(plan)
    except TypeError:
        return plan_to_ir(plan)
    if cached is not None:
        return cached
    encoded = plan_to_ir(plan)
    try:
        with _ENCODED_PLANS_LOCK:
            _ENCODED_PLANS[plan] = encoded
    except TypeError:
        pass
    return encoded


def _encode_request(request: QueryRequest, runtime: Runtime) -> Dict[str, Any]:
    """One request plus the service's retry/executor settings, as data.

    The deadline travels as the seconds left *now*, so the worker's
    dispatcher stops retry backoff where the parent would.  It is
    floored at a microsecond: an already-expired deadline still reaches
    the worker as one, and fails there typed at the first access.
    """
    deadline = request.deadline(runtime.clock)
    return {
        "request_id": request.request_id,
        "plan": _encoded_plan_ir(request.plan),
        "bindings": _encode_bindings(request.bindings),
        "budget": request.budget.as_dict() if request.budget else None,
        "deadline": None if deadline is None else max(deadline.remaining(), 1e-6),
        "retry": runtime.retry.as_dict() if runtime.retry else None,
        "executor": runtime.executor,
        "collect_stats": runtime.collect_stats,
    }


def _encode_response(response: QueryResponse) -> Dict[str, Any]:
    """A worker's response as plain data (see :func:`_decode_response`)."""
    encoded: Dict[str, Any] = {
        "table": None if response.table is None else table_to_ir(response.table),
        "complete": response.complete,
        "partial": response.partial,
        "truncated_rows": response.truncated_rows,
        "stats": None if response.stats is None else response.stats.as_dict(),
    }
    error = response.error
    if error is not None:
        encoded["error_type"] = type(error).__name__
        encoded["error"] = str(error)
        # Access-layer context crosses the boundary too: the service's
        # method-health registry needs to know *which* method died, and
        # a string message is not a protocol.
        for attribute in ("method", "relation"):
            value = getattr(error, attribute, None)
            if isinstance(value, str):
                encoded[attribute] = value
    return encoded


def _decode_response(request_id: str, result: Mapping[str, Any]) -> QueryResponse:
    """Rebuild the :class:`QueryResponse` a worker encoded."""
    table = result.get("table")
    stats = result.get("stats")
    return QueryResponse(
        request_id,
        table=None if table is None else table_from_ir(table),
        complete=bool(result.get("complete")),
        partial=bool(result.get("partial")),
        truncated_rows=int(result.get("truncated_rows", 0)),
        stats=None if stats is None else ExecStats.from_dict(stats),
        error=_rebuild_error(result) if "error_type" in result else None,
    )


def _rebuild_error(result: Mapping[str, Any]) -> ReproError:
    """Rebuild the typed error a worker reported for one request.

    Access errors are rebuilt *with* their method/relation context when
    the worker shipped it, so parent-side consumers (the service's
    method-health registry, failover diagnosis) see the same typed
    error they would have seen executing in-process.
    """
    error_type = result.get("error_type", "ExecutionError")
    error_class = getattr(errors_module, error_type, ExecutionError)
    if not (
        isinstance(error_class, type) and issubclass(error_class, ReproError)
    ):
        error_class = ExecutionError
    message = str(result.get("error", "worker failure"))
    kwargs: Dict[str, Any] = {}
    if issubclass(error_class, AccessError):
        for attribute in ("method", "relation"):
            value = result.get(attribute)
            if isinstance(value, str):
                kwargs[attribute] = value
    try:
        return error_class(message, **kwargs)
    except TypeError:
        return ExecutionError(message)


# ------------------------------------------------------- worker process side
#: The worker's runtime: its rehydrated source and one breaker registry
#: that lives as long as the worker (set once by the pool initializer).
_WORKER_RUNTIME: Optional[Runtime] = None


def _init_worker(spec: Mapping[str, Any]) -> None:
    """Executor initializer: build the worker's runtime once per process."""
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = Runtime(spec_to_source(spec))


def _run_payload(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The task the parent submits; referenced by name, so spawn-safe."""
    retry, budget = payload["retry"], payload["budget"]
    runtime = replace(
        _WORKER_RUNTIME,
        retry=RetryPolicy.from_dict(retry) if retry else None,
        executor=payload["executor"],
        collect_stats=payload["collect_stats"],
    )
    request = QueryRequest(
        plan=ir_to_plan(payload["plan"]),
        bindings=_decode_bindings(payload["bindings"]),
        deadline_seconds=payload["deadline"],
        budget=ResourceBudget.from_dict(budget) if budget else None,
        request_id=payload["request_id"],
        submitted_at=runtime.clock(),
    )
    try:
        return _encode_response(run_request(request, runtime))
    finally:
        # The worker's access log lives for one request: nothing reads
        # it across the process boundary (the parent meters through the
        # shipped ExecStats), so keeping it would only grow the worker.
        runtime.source.reset_log()


# -------------------------------------------------------- latency tracking
class LatencyTracker:
    """Streaming EWMA mean + P95 estimate of request service times.

    The P95 is a Robbins-Monro stochastic quantile approximation: each
    sample nudges the estimate up by a ``quantile`` fraction of one
    step when the sample lies above it, down by ``1 - quantile`` when
    below, with the step scaled to the current mean -- so the tail
    estimate converges without storing any samples.  :meth:`hedge_delay`
    is what hedged dispatch waits before duplicating a request: the
    current P95 (clamped into ``[min_delay, max_delay]``), i.e. long
    enough that ~95% of requests come back unhedged and only the tail
    pays for a duplicate.  Until ``warmup`` samples arrive the tracker
    answers ``initial_delay`` -- a cold estimator should not hedge
    aggressively.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        quantile: float = 0.95,
        initial_delay: float = 0.05,
        min_delay: float = 0.001,
        max_delay: float = 5.0,
        warmup: int = 5,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be within (0, 1]")
        if not 0 < quantile < 1:
            raise ValueError("quantile must be within (0, 1)")
        self.alpha = alpha
        self.quantile = quantile
        self.initial_delay = initial_delay
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.warmup = warmup
        self._lock = threading.Lock()
        self.samples = 0
        self.mean = 0.0
        self.p95 = 0.0

    def observe(self, seconds: float) -> None:
        """Fold one observed request service time in."""
        if seconds < 0:
            return
        with self._lock:
            self.samples += 1
            if self.samples == 1:
                self.mean = seconds
                self.p95 = seconds
                return
            self.mean += self.alpha * (seconds - self.mean)
            step = self.alpha * max(self.mean, 1e-6)
            if seconds > self.p95:
                self.p95 += step * self.quantile
            else:
                self.p95 = max(0.0, self.p95 - step * (1.0 - self.quantile))

    def hedge_delay(self) -> float:
        """How long to wait before issuing a hedge duplicate."""
        with self._lock:
            if self.samples < self.warmup:
                return self.initial_delay
            return min(self.max_delay, max(self.min_delay, self.p95))

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-able snapshot (surfaced by pool ``health()``)."""
        with self._lock:
            return {
                "samples": self.samples,
                "mean": self.mean,
                "p95": self.p95,
            }


# ------------------------------------------------------------------- pools
class WorkerPool:
    """The execution-tier interface ``QueryService`` dispatches through.

    One blocking call per request: :meth:`run` executes the request via
    :func:`~repro.service.runtime.run_request` and returns its
    :class:`QueryResponse`, raising typed errors only for tier-level
    failures (crash, stall, timeout).  ``start``/``shutdown`` bracket
    the tier's lifetime; :meth:`health` is a JSON-able liveness
    snapshot.

    Both concrete tiers share two opt-in resilience features:

    * a **watchdog** (``watchdog_seconds``): a stall bound per request,
      independent of (and typically much tighter than) the request
      deadline.  A request that exceeds it while its worker is alive
      but stuck surfaces typed :class:`~repro.errors.WorkerStalled`
      instead of blocking its slot forever -- the process tier also
      kills and recreates the pool to reclaim the slot;
    * **hedged dispatch** (``hedge=True``): after an adaptive
      EWMA-P95-based delay (see :class:`LatencyTracker`) the request is
      duplicated to a second worker and the first result wins, cutting
      tail latency.  Safe because plan execution is deterministic and
      accesses are idempotent under set semantics (docs/theory.md,
      "Chaos model, hedging, and degraded serving").
    """

    kind = "none"
    #: Whether requests run over the service's own runtime, so the live
    #: objects in it (access cache, breakers, sleep hook) apply as given.
    shares_runtime = True

    def __init__(
        self,
        workers: int = 8,
        watchdog_seconds: Optional[float] = None,
        hedge: bool = False,
        hedge_delay: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be positive")
        if hedge_delay is not None and hedge_delay <= 0:
            raise ValueError("hedge_delay must be positive")
        self.workers = workers
        self.watchdog_seconds = watchdog_seconds
        self.hedge = hedge
        self._hedge_delay = hedge_delay
        self.latency = LatencyTracker()
        self._lock = threading.Lock()
        self._executor = None
        self._started = False
        self.tasks = 0
        self.crashes = 0
        self.restarts = 0
        self.stalls = 0
        self.watchdog_kills = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.hedge_waste = 0
        self.hedge_cancelled = 0
        self._pending = 0

    def hedge_delay(self) -> float:
        """The delay before a hedge duplicate (fixed or adaptive)."""
        if self._hedge_delay is not None:
            return self._hedge_delay
        return self.latency.hedge_delay()

    def backlog(self) -> int:
        """Requests currently inside the tier (submitted, unfinished)."""
        with self._lock:
            return self._pending

    def start(self) -> "WorkerPool":
        """Bring the tier up; returns ``self`` for ``with``-chaining."""
        with self._lock:
            self._started = True
            self._ensure_executor()
        return self

    def _ensure_executor(self) -> None:
        """Create (or recreate) the executor; caller holds the lock."""
        if self._executor is None:
            self._executor = self._new_executor()

    def _new_executor(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def shutdown(self) -> None:
        """Stop the executor and mark the tier not-started; idempotent."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._started = False
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def alive(self) -> bool:
        """Whether the tier can currently take requests."""
        with self._lock:
            return self._started and self._executor is not None

    def run(
        self,
        request: QueryRequest,
        runtime: Runtime,
        timeout: Optional[float] = None,
    ) -> QueryResponse:
        """Execute one request on the tier and return its response.

        Raises typed :class:`~repro.errors.WorkerCrashed` when the tier
        is not running or a worker died on the request (the process
        tier then recreates its pool), :class:`~repro.errors.
        WorkerStalled` when the watchdog bound passes first, and
        :class:`~repro.errors.DeadlineExceeded` when ``timeout`` does.
        With ``hedge`` enabled the request is duplicated after the
        hedge delay and the first response wins.
        """
        with self._lock:
            if not self._started or self._executor is None:
                raise WorkerCrashed(
                    f"{self.kind} worker pool is not running",
                    restarts=self.restarts,
                )
            executor = self._executor
            self.tasks += 1
            self._pending += 1
        effective = timeout
        if self.watchdog_seconds is not None:
            effective = (
                self.watchdog_seconds
                if timeout is None
                else min(timeout, self.watchdog_seconds)
            )
        started = time.monotonic()
        future: Optional[Future] = None
        submit = partial(self._submit, executor, request, runtime)
        try:
            future = submit()
            result = self._wait_hedged(future, submit, effective)
            self.latency.observe(time.monotonic() - started)
            return self._response(request, result)
        except FutureTimeoutError:
            raise self._timeout_error(executor, future, timeout) from None
        except BrokenExecutor as broken:
            raise WorkerCrashed(
                f"worker process died executing this request: {broken}",
                restarts=self._recreate(executor),
            ) from broken
        finally:
            with self._lock:
                self._pending -= 1

    def _submit(
        self, executor, request: QueryRequest, runtime: Runtime
    ) -> Future:  # pragma: no cover - overridden
        """Submit one copy of the request to the executor."""
        raise NotImplementedError

    def _response(self, request: QueryRequest, result) -> QueryResponse:
        """The response a finished copy's future holds."""
        return result

    def _wait_hedged(
        self,
        primary: Future,
        submit: Callable[[], Future],
        timeout: Optional[float],
    ):
        """Await a request future, duplicating it after the hedge delay.

        Returns the winner's result; raises ``FutureTimeoutError`` when
        neither copy answered within ``timeout`` (the duplicate is
        cancelled best-effort first) and whatever the winner raised
        otherwise.  Counter protocol: ``hedges`` counts duplicates
        issued, ``hedge_wins`` duplicates that answered first,
        ``hedge_waste`` duplicates outrun by their primary.
        """
        started = time.monotonic()
        delay = self.hedge_delay()
        if not self.hedge or (timeout is not None and delay >= timeout):
            return primary.result(timeout=timeout)
        try:
            return primary.result(timeout=delay)
        except FutureTimeoutError:
            pass
        hedge = submit()
        with self._lock:
            self.hedges += 1
        remaining = (
            None
            if timeout is None
            else max(0.0, timeout - (time.monotonic() - started))
        )
        done, _ = futures_wait(
            [primary, hedge], timeout=remaining, return_when=FIRST_COMPLETED
        )
        if not done:
            self._cancel_loser(hedge)
            raise FutureTimeoutError()
        # Prefer the primary when both raced to completion: its result
        # is identical (deterministic execution) and the accounting
        # then calls the duplicate what it was -- waste.
        winner = primary if primary in done else hedge
        loser = hedge if winner is primary else primary
        with self._lock:
            if winner is hedge:
                self.hedge_wins += 1
            else:
                self.hedge_waste += 1
        self._cancel_loser(loser)
        return winner.result()

    def _cancel_loser(self, future: Future) -> None:
        """Reclaim a hedge loser's slot, best-effort.

        The base behaviour is ``Future.cancel()`` -- which only helps
        while the loser is still queued.  Tiers that can reach into a
        *running* duplicate (the thread tier's cancellation tokens)
        override this.
        """
        future.cancel()

    def _timeout_error(
        self, executor, future: Optional[Future], timeout: Optional[float]
    ) -> ReproError:
        """Map one request timeout to its typed error (watchdog-aware).

        A copy that never started is dequeued; a running one is handed
        to :meth:`_reclaim`.  When the request's own deadline expired
        first the error is :class:`DeadlineExceeded`, otherwise the
        watchdog fired and it is :class:`WorkerStalled`.
        """
        watchdog_fired = self.watchdog_seconds is not None and (
            timeout is None or self.watchdog_seconds < timeout
        )
        cancelled = future.cancel() if future is not None else True
        killed = not cancelled and self._reclaim(executor, future)
        if not watchdog_fired:
            return DeadlineExceeded(
                f"worker did not answer within {timeout:.3f}s"
            )
        with self._lock:
            self.stalls += 1
            stalls = self.stalls
        if cancelled:
            detail = "never started: all workers busy"
        elif killed:
            detail = "pool killed and recreated"
        else:
            detail = "worker thread leaked until its task finishes"
        return WorkerStalled(
            f"request made no progress within the {self.watchdog_seconds}s "
            f"watchdog bound ({detail})",
            stalls=stalls,
            killed=killed,
        )

    def _reclaim(self, executor, future: Future) -> bool:
        """Free a timed-out running copy's slot; True if workers were killed."""
        return False

    def _recreate(self, broken) -> int:
        """Replace a broken executor with a fresh one; returns restarts."""
        with self._lock:
            self.crashes += 1
            if self._executor is broken:
                self._executor = None
                if self._started:
                    self.restarts += 1
                    self._ensure_executor()
            restarts = self.restarts
        broken.shutdown(wait=False, cancel_futures=True)
        return restarts

    def health(self) -> Dict[str, Any]:
        """A JSON-able liveness/counters snapshot of the tier."""
        with self._lock:
            return {
                "tier": self.kind,
                "alive": self._started and self._executor is not None,
                "workers": self.workers,
                "tasks": self.tasks,
                "crashes": self.crashes,
                "restarts": self.restarts,
                "pending": self._pending,
                "watchdog_seconds": self.watchdog_seconds,
                "stalls": self.stalls,
                "watchdog_kills": self.watchdog_kills,
                "hedge": self.hedge,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "hedge_waste": self.hedge_waste,
                "hedge_cancelled": self.hedge_cancelled,
                "latency": self.latency.as_dict(),
            }

    def __repr__(self) -> str:
        state = "alive" if self.alive() else "stopped"
        return (
            f"{type(self).__name__}({self.workers} workers, {state}, "
            f"{self.tasks} tasks, {self.crashes} crashes)"
        )

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


class ProcessWorkerPool(WorkerPool):
    """Plan execution on a ``ProcessPoolExecutor`` over a source spec.

    Each worker builds its runtime once, in the executor's initializer:
    the source rehydrated from the spec and one breaker registry that
    lives as long as the worker.  Requests then cross the boundary as
    data (see :func:`_encode_request`).  The service's access cache,
    breaker registry and sleep hook are live objects that cannot cross,
    so :class:`~repro.service.QueryService` rejects them for this tier
    (``shares_runtime`` is False).

    ``start_method`` defaults to ``"spawn"``: slowest to start but
    immune to fork-time lock/thread hazards, and it proves the spec
    path carries *everything* a worker needs (fork can silently lean on
    inherited state).  The differential tests run both.

    A broken pool (a worker killed mid-request) fails the affected
    request with :class:`~repro.errors.WorkerCrashed` and the pool is
    recreated immediately, so the next request is served by fresh
    workers -- liveness is reported via :meth:`health`.  A watchdog
    stall kills and recreates the pool to reclaim the slot (collateral
    in-flight requests on the killed pool surface as
    :class:`WorkerCrashed`, typed, never hung).
    """

    kind = "process"
    shares_runtime = False

    def __init__(
        self,
        source_spec: Mapping[str, Any],
        workers: int = 8,
        start_method: str = "spawn",
        watchdog_seconds: Optional[float] = None,
        hedge: bool = False,
        hedge_delay: Optional[float] = None,
    ) -> None:
        super().__init__(workers, watchdog_seconds, hedge, hedge_delay)
        self.source_spec = dict(source_spec)
        self.start_method = start_method

    @classmethod
    def for_source(
        cls, source, workers: int = 8, start_method: str = "spawn", **kwargs
    ) -> "ProcessWorkerPool":
        """Build a pool from a live source (via :func:`source_to_spec`)."""
        return cls(
            source_to_spec(source),
            workers=workers,
            start_method=start_method,
            **kwargs,
        )

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=get_context(self.start_method),
            initializer=_init_worker,
            initargs=(self.source_spec,),
        )

    def _submit(self, executor, request, runtime) -> Future:
        return executor.submit(_run_payload, _encode_request(request, runtime))

    def _response(self, request, result) -> QueryResponse:
        return _decode_response(request.request_id, result)

    def _reclaim(self, executor, future) -> bool:
        """Kill a stuck executor's workers and install a fresh pool.

        ``Future.cancel`` cannot stop a *running* task, so reclaiming
        the slot means killing the worker processes.  Without a
        watchdog the stuck task is merely abandoned: its slot stays
        blocked until it finishes.
        """
        if self.watchdog_seconds is None:
            return False
        with self._lock:
            self.watchdog_kills += 1
            if self._executor is executor:
                self._executor = None
                if self._started:
                    self.restarts += 1
                    self._ensure_executor()
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover -- already dead
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        return True

    def health(self) -> Dict[str, Any]:
        """A JSON-able liveness/counters snapshot of the tier."""
        snapshot = super().health()
        snapshot["start_method"] = self.start_method
        return snapshot


class ThreadWorkerPool(WorkerPool):
    """The execution tier on a thread pool, over the service's runtime.

    Each request runs :func:`~repro.service.runtime.run_request` on a
    pool thread over the very runtime the service would use in-process
    -- no serialization, so the service's access cache, breakers and
    sleep hook are honoured by construction, and a hedge duplicate
    shares the cache's single-flight with its primary.  What the tier
    adds is its resilience: the watchdog and hedged dispatch.

    The watchdog surfaces a stuck request as typed
    :class:`~repro.errors.WorkerStalled` -- but unlike the process tier
    it cannot reclaim the slot: Python threads cannot be killed, so the
    stalled thread is asked to stop at its next between-commands check
    and otherwise leaks until its task finishes (counted in ``stalls``).
    """

    kind = "thread"

    def _new_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="exec-tier"
        )

    def _submit(self, executor, request, runtime) -> Future:
        """Submit one copy of the request with its own cancel token.

        The token is set when the copy loses a hedge race or times out
        while already running, so it stops at its next between-commands
        check instead of finishing.
        """
        token = threading.Event()
        submitted = executor.submit(run_request, request, runtime, cancel=token)
        submitted.cancel_token = token
        return submitted

    @staticmethod
    def _flag_down(future: Future) -> bool:
        """Set a running copy's cancel token; True if it was newly set."""
        if future.cancel_token.is_set():
            return False
        future.cancel_token.set()
        return True

    def _reclaim(self, executor, future) -> bool:
        self._flag_down(future)
        return False

    def _cancel_loser(self, future: Future) -> None:
        """Reclaim a hedge loser's slot: dequeue it, or flag it down.

        A loser already *running* cannot be killed (Python threads), but
        its cancellation token is set, so it raises
        :class:`~repro.errors.PlanCancelled` at its next
        between-commands check and frees its slot early -- counted in
        ``hedge_cancelled`` (the result is never read: the winner
        already answered).
        """
        if not future.cancel() and self._flag_down(future):
            with self._lock:
                self.hedge_cancelled += 1
