"""The concurrent query service: a bounded worker pool over one runtime.

:class:`QueryService` is the serving loop the ROADMAP's "heavy traffic"
north star needs: many clients submit plan runs concurrently, a fixed
pool of worker threads executes them over *shared* runtime state (one
:class:`~repro.data.source.InMemorySource` with its per-method indexes,
one :class:`~repro.exec.cache.AccessCache`, one
:class:`~repro.exec.resilience.BreakerRegistry`), and the service stays
correct and responsive no matter the offered load:

* **admission control** -- a bounded priority queue
  (:class:`~repro.service.admission.AdmissionQueue`); overload is shed
  fast with typed :class:`~repro.errors.ServiceOverloaded` errors
  carrying queue depth and a retry-after hint, and high-priority
  arrivals may preempt queued best-effort work.
* **per-request governance** -- each request runs under its own
  :class:`~repro.exec.resilience.Deadline` (measured from *submission*,
  so time spent queued counts) and
  :class:`~repro.exec.budget.ResourceBudget` (row budgets inside
  :meth:`Plan.execute <repro.plans.plan.Plan.execute>`, access/cost
  budgets via :class:`~repro.data.decorators.BudgetedSource`), so one
  pathological request degrades to a typed error or an explicitly
  marked partial answer instead of starving the pool.
* **isolation of mutable state** -- workers share only lock-protected
  structures; every request gets its own
  :class:`~repro.exec.resilience.ResilientDispatcher` (forked over the
  shared breakers) and its own :class:`~repro.exec.stats.ExecStats`,
  merged into the service aggregate under the service lock.
* **lifecycle** -- :meth:`start` / :meth:`drain` / :meth:`shutdown`
  with the drain guarantee (in-flight and queued requests finish, new
  ones are rejected) and a :meth:`health` snapshot for operators.

Soundness of the sharing is argued in ``docs/theory.md`` ("Concurrent
serving"): memoization and breaker state are *monotone observations* of
a deterministic source, so interleaving requests cannot change any
request's answer -- the differential test suite asserts exactly that.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Mapping, Optional

from repro.cost.bounds import SizeBounds
from repro.cost.calibration import CalibrationStore
from repro.data.accessible_part import accessible_part
from repro.data.instance import _to_constant
from repro.errors import (
    DeadlineExceeded,
    ExecutionError,
    MethodOutage,
    NoViablePlan,
    PlanFailed,
    PlanInadmissible,
    ReproError,
    ServiceOverloaded,
    ServiceStopped,
    UnsupportedOnTier,
)
from repro.exec.budget import ERROR, ResourceBudget
from repro.exec.cache import AccessCache
from repro.exec.resilience import CLOSED, BreakerRegistry, RetryPolicy, Sleep
from repro.exec.stats import ExecStats
from repro.logic.atoms import Atom
from repro.logic.queries import ConjunctiveQuery
from repro.planner.plan_cache import PlanCache, canonical_query_text, plan_cache_key
from repro.planner.search import SearchOptions, find_best_plan
from repro.plans.expressions import NamedTable
from repro.plans.plan import Plan
from repro.service.admission import AdmissionQueue
from repro.service.method_health import MethodHealthRegistry
from repro.service.request import (
    PRIORITY_NORMAL,
    QueryRequest,
    QueryResponse,
    Ticket,
)
from repro.service.runtime import Runtime, run_request
from repro.service.workers import WorkerPool

#: retry-after floor when the service has not served anything yet.
_DEFAULT_SERVICE_TIME = 0.05


@dataclass
class ServiceHealth:
    """A point-in-time operational snapshot of a :class:`QueryService`."""

    running: bool
    accepting: bool
    workers: int
    queue_depth: int
    queue_capacity: int
    in_flight: int
    served: int
    completed: int
    partial: int
    failed: int
    shed: int
    rejected: int
    preempted: int
    mean_service_time: float
    breakers: Dict[str, str]
    cache: Optional[Dict]
    stats: Optional[Dict]
    #: Execution-tier liveness (None when running in the worker threads).
    worker_tier: Optional[Dict] = None
    #: Plan-cache counters (None when no plan cache is configured).
    plan_cache: Optional[Dict] = None
    #: How many times Algorithm 1 search actually ran for submit_query.
    planned: int = 0
    #: Cost-calibration counters (None when no store is configured):
    #: observation totals, store version, estimate hit/fallback counts.
    calibration: Optional[Dict] = None
    #: Requests rejected at admission because their static result-size
    #: bound already exceeded the budget's row ceiling.
    rejected_inadmissible: int = 0
    #: Method-health registry snapshot: the current dead-method set,
    #: outage observations, recoveries, plus how often planning re-ran
    #: over a degraded schema (``replans``) and how many responses were
    #: served under a nonempty dead set (``degraded_served``).
    method_health: Optional[Dict] = None

    def summary(self) -> str:
        """A one-line human-readable digest."""
        open_breakers = [
            method for method, state in self.breakers.items()
            if state != "closed"
        ]
        return (
            f"{'running' if self.running else 'stopped'}"
            f"{'' if self.accepting else ' (draining)'}: "
            f"{self.in_flight} in flight, "
            f"{self.queue_depth}/{self.queue_capacity} queued, "
            f"{self.served} served "
            f"({self.completed} complete / {self.partial} partial / "
            f"{self.failed} failed), {self.shed} shed"
            + (f", breakers not closed: {open_breakers}" if open_breakers else "")
            + (
                f", worker tier {self.worker_tier['tier']} DEGRADED"
                if self.worker_tier and not self.worker_tier.get("alive")
                else ""
            )
        )

    def as_dict(self) -> Dict:
        """A JSON-able representation."""
        return {
            "running": self.running,
            "accepting": self.accepting,
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "in_flight": self.in_flight,
            "served": self.served,
            "completed": self.completed,
            "partial": self.partial,
            "failed": self.failed,
            "shed": self.shed,
            "rejected": self.rejected,
            "preempted": self.preempted,
            "mean_service_time": self.mean_service_time,
            "breakers": dict(self.breakers),
            "cache": self.cache,
            "stats": self.stats,
            "worker_tier": self.worker_tier,
            "plan_cache": self.plan_cache,
            "planned": self.planned,
            "calibration": self.calibration,
            "rejected_inadmissible": self.rejected_inadmissible,
            "method_health": self.method_health,
        }


class QueryService:
    """Serve plan runs concurrently over one shared, locked runtime."""

    def __init__(
        self,
        source,
        *,
        workers: int = 4,
        max_queue: int = 64,
        cache: Optional[AccessCache] = None,
        retry: Optional[RetryPolicy] = None,
        breakers: Optional[BreakerRegistry] = None,
        default_deadline: Optional[float] = None,
        default_budget: Optional[ResourceBudget] = None,
        collect_stats: bool = True,
        clock=time.monotonic,
        sleep: Optional[Sleep] = None,
        name: str = "service",
        executor: str = "interpreter",
        worker_pool: Optional[WorkerPool] = None,
        plan_cache: Optional[PlanCache] = None,
        calibration: Optional[CalibrationStore] = None,
        size_bounds: Optional[SizeBounds] = None,
        method_health: Optional[MethodHealthRegistry] = None,
        allow_degraded: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        if not getattr(worker_pool, "shares_runtime", True):
            # Live objects cannot cross into the tier's workers: refuse
            # them here rather than serve without them.
            knobs = [
                name
                for name, value in (
                    ("cache", cache), ("breakers", breakers), ("sleep", sleep)
                )
                if value is not None
            ]
            if knobs:
                raise UnsupportedOnTier(
                    f"the {worker_pool.kind} tier cannot honour "
                    f"{', '.join(k + '=' for k in knobs)}: its workers run "
                    "over their own runtime",
                    knobs=knobs,
                    tier=worker_pool.kind,
                )
        self.source = source
        self.workers = workers
        # Feedback loop: every served request's ExecStats are folded
        # into the calibration store (per-method fan-out/selectivity),
        # which cost functions holding the store read on the next plan.
        self.calibration = calibration
        # Static size bounds backing admission-time inadmissibility
        # checks: a plan whose provable result-size floor already
        # exceeds the request's hard row ceiling is rejected typed,
        # before a single access is dispatched.
        self.size_bounds = size_bounds
        schema = getattr(source, "schema", None)
        self._method_relations: Dict[str, str] = (
            {m.name: m.relation for m in schema.methods}
            if schema is not None
            else {}
        )
        self._rejected_inadmissible = 0
        # The execution tier: None keeps plan runs in this process's
        # worker threads; a ThreadWorkerPool runs them on its threads
        # over the same runtime; a ProcessWorkerPool ships them (plan IR
        # + bindings + budget, never pickles) to worker processes, which
        # is what escapes the GIL.
        self.worker_pool = worker_pool
        # Cross-request plan cache consulted by submit_query before
        # invoking Algorithm 1 search.
        self.plan_cache = plan_cache
        self._planned = 0
        # Health-aware degraded planning: outages observed while serving
        # mark methods dead here, and plan_for plans over the schema
        # minus the dead set -- one re-plan per outage, not one failure
        # per request.  allow_degraded additionally lets submit_query
        # fall back to a marked-partial accessible-part answer when no
        # full plan survives the dead set.
        self.method_health = (
            method_health if method_health is not None else MethodHealthRegistry()
        )
        self.allow_degraded = allow_degraded
        self._replans = 0
        self._degraded_served = 0
        self.breakers = breakers if breakers is not None else BreakerRegistry(
            clock=clock
        )
        self.default_deadline = default_deadline
        self.default_budget = default_budget
        self.clock = clock
        self.name = name
        self.stats: Optional[ExecStats] = ExecStats() if collect_stats else None
        # Everything a request executes over, shared by every worker
        # thread and by a thread tier (docs/theory.md, "Concurrent
        # serving").
        self.runtime = Runtime(
            source,
            cache=cache,
            breakers=self.breakers,
            retry=retry,
            sleep=sleep,
            executor=executor,
            clock=clock,
            collect_stats=collect_stats,
        )
        self._queue = AdmissionQueue(max_queue)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._threads: List[threading.Thread] = []
        self._running = False
        self._accepting = False
        self._ids = itertools.count(1)
        self._in_flight = 0
        self._served = 0
        self._completed = 0
        self._partial = 0
        self._failed = 0
        self._shed = 0
        self._mean_service_time = 0.0

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "QueryService":
        """Spawn the worker pool and begin accepting requests."""
        with self._lock:
            if self._running:
                return self
            self._queue.reopen()
            self._running = True
            self._accepting = True
        if self.worker_pool is not None:
            self.worker_pool.start()
        with self._lock:
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"{self.name}-worker-{i}",
                    daemon=True,
                )
                for i in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: finish queued + in-flight work, reject new.

        Returns True when everything finished within ``timeout``.
        """
        return self.shutdown(drain=True, timeout=timeout)

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Stop the service; with ``drain=False`` queued work is shed.

        Already-executing requests always run to completion (their
        tickets resolve); with ``drain=False`` still-queued tickets are
        resolved with a typed :class:`ServiceStopped` error instead of
        executing.  Returns True when every worker exited in time.
        """
        with self._lock:
            self._accepting = False
        if not drain:
            for ticket in self._queue.evict_all():
                self._resolve_shed(
                    ticket,
                    ServiceStopped(
                        "service stopped before this request was served"
                    ),
                )
        self._queue.close()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        finished = True
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            finished = finished and not thread.is_alive()
        if self.worker_pool is not None:
            self.worker_pool.shutdown()
        with self._lock:
            self._running = not finished
        return finished

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # ---------------------------------------------------------- submission
    def submit(
        self,
        plan: Plan,
        *,
        bindings: Optional[Mapping[object, object]] = None,
        priority: int = PRIORITY_NORMAL,
        deadline: Optional[float] = None,
        budget: Optional[ResourceBudget] = None,
        request_id: Optional[str] = None,
    ) -> Ticket:
        """Admit one request; returns its :class:`Ticket` immediately.

        Raises :class:`~repro.errors.ServiceOverloaded` (fast, typed,
        with queue depth and retry-after hint) when admission control
        sheds the request at the door, and
        :class:`~repro.errors.ServiceStopped` when the service is not
        accepting.  A lower-priority ticket preempted by this admission
        is resolved with the same typed overload error -- every
        submitted request is accounted for.
        """
        with self._lock:
            if not (self._running and self._accepting):
                raise ServiceStopped(
                    f"service {self.name!r} is not accepting requests"
                )
            rid = request_id or f"q{next(self._ids)}"
        if budget is None and self.default_budget is not None:
            budget = self.default_budget.fresh()
        self._check_admissible(plan, budget)
        seconds = deadline if deadline is not None else self.default_deadline
        request = QueryRequest(
            plan=plan,
            bindings=bindings,
            priority=priority,
            deadline_seconds=seconds,
            budget=budget,
            request_id=rid,
            submitted_at=self.clock(),
        )
        ticket = Ticket(request)
        try:
            evicted = self._queue.offer(
                ticket, retry_after=self._retry_after_hint()
            )
        except ServiceOverloaded:
            with self._lock:
                self._shed += 1
            raise
        if evicted is not None:
            depth = self._queue.depth()
            self._resolve_shed(
                evicted,
                ServiceOverloaded(
                    "request shed from the admission queue by a "
                    "higher-priority arrival",
                    queue_depth=depth,
                    retry_after=self._retry_after_hint(),
                    shed=True,
                ),
            )
        return ticket

    def _check_admissible(
        self, plan: Plan, budget: Optional[ResourceBudget]
    ) -> None:
        """Reject plans whose static result bound dooms the budget.

        Only fires when static size bounds are configured, the budget's
        result ceiling is a hard error (``on_result_overflow="error"``
        -- truncate-mode requests succeed partially, so they are never
        doomed), and the bound is *finite*: an unknown (infinite) bound
        proves nothing, and admission stays permissive on no-proof.
        Conversely a finite bound at or under the ceiling proves the
        admitted request can never trip the result check.
        """
        if (
            self.size_bounds is None
            or budget is None
            or budget.max_result_rows is None
            or budget.on_result_overflow != ERROR
        ):
            return
        bound = self.size_bounds.result_bound(plan)
        if math.isinf(bound) or bound <= budget.max_result_rows:
            return
        with self._lock:
            self._rejected_inadmissible += 1
        raise PlanInadmissible(
            f"plan {plan.name!r} statically bounded to "
            f"{bound:.0f} result rows, over the hard budget ceiling of "
            f"{budget.max_result_rows}; rejected before execution",
            kind="result",
            bound=bound,
            ceiling=budget.max_result_rows,
        )

    def serve(
        self,
        plan: Plan,
        *,
        timeout: Optional[float] = None,
        **kwargs,
    ) -> QueryResponse:
        """Submit and block for the response (convenience wrapper)."""
        return self.submit(plan, **kwargs).result(timeout)

    # ------------------------------------------------------ query planning
    def current_dead_methods(self) -> tuple:
        """The dead-method set planning must avoid right now, sorted.

        The union of the method-health registry and any breakers
        force-opened by a hard outage (failover's diagnosis path);
        force-opened breakers are folded *into* the registry so the
        two views converge.  Recovery is observed here too: a dead
        method whose breaker has closed again (a half-open probe
        succeeded, or :meth:`mark_method_recovered` reset it) leaves
        the dead set.
        """
        dead = set(self.method_health.dead_methods())
        for method in self.breakers.forced_open_methods():
            if method not in dead:
                self.method_health.mark_dead(method, reason="breaker forced open")
                dead.add(method)
        if dead:
            states = self.breakers.states()
            for method in list(dead):
                if states.get(method) == CLOSED:
                    self.method_health.mark_recovered(method)
                    dead.discard(method)
        return tuple(sorted(dead))

    def mark_method_recovered(self, method: str) -> bool:
        """Declare one method's outage over (operator/probe action).

        Resets the method's breaker (a *forced*-open breaker never
        half-opens by itself) and clears the registry entry, so the
        next planning pass sees the full schema again -- whose cached
        plan, keyed by the healthy schema fingerprint, is still warm.
        Returns True when the method was actually marked dead.
        """
        self.breakers.reset_method(method)
        return self.method_health.mark_recovered(method)

    def plan_for(
        self,
        query: ConjunctiveQuery,
        *,
        search_options: Optional[SearchOptions] = None,
    ) -> Plan:
        """The best plan for a query, via the plan cache when configured.

        The cache key covers the *whole* planning problem -- canonical
        query text, schema fingerprint, cost-model identity (see
        :mod:`repro.planner.plan_cache`) -- so a hit is exactly as good
        as re-running Algorithm 1.  On a miss the search runs here, in
        the submitting thread (planning is request-shaping work, like
        admission), and the result is stored for every later request.
        Concurrent misses on the same key may both search; both store
        the same answer, so this is wasted work at worst, never a wrong
        plan.

        Under a nonempty dead-method set, planning runs over
        ``schema.without_methods(dead)``: the degraded schema has a
        *different fingerprint*, so the dead set is part of the cache
        key by construction -- an outage costs one re-plan (a cache
        miss on the degraded key), then every request hits the degraded
        entry until recovery swings the key back.  Raises typed
        :class:`~repro.errors.NoViablePlan` when no plan avoids the
        dead methods.
        """
        options = search_options if search_options is not None else SearchOptions()
        dead = self.current_dead_methods()
        schema = self.source.schema
        if dead:
            schema = schema.without_methods(dead)
        key = None
        if self.plan_cache is not None:
            key = plan_cache_key(query, schema, options.cost)
            hit = self.plan_cache.get(key)
            if hit is not None:
                return hit.plan
        if dead and not schema.methods:
            raise NoViablePlan(
                "every access method is dead", dead_methods=dead
            )
        result = find_best_plan(schema, query, options)
        with self._lock:
            self._planned += 1
            if dead:
                self._replans += 1
        if not result.found:
            if dead:
                raise NoViablePlan(
                    f"no plan for {canonical_query_text(query)} avoids "
                    f"the dead methods",
                    dead_methods=dead,
                )
            raise ExecutionError(
                f"no plan within the search budget for query "
                f"{canonical_query_text(query)}"
            )
        if self.plan_cache is not None and key is not None:
            meta = {
                "query": canonical_query_text(query),
                "schema": schema.fingerprint(),
            }
            if dead:
                meta["dead_methods"] = list(dead)
            self.plan_cache.put(key, result.best_plan, result.best_cost, meta=meta)
        return result.best_plan

    def submit_query(
        self,
        query: ConjunctiveQuery,
        *,
        search_options: Optional[SearchOptions] = None,
        **kwargs,
    ) -> Ticket:
        """Plan a query (cache-first) and admit the resulting plan run.

        This is the millions-of-users entry point: many clients, few
        distinct queries.  With a warm :class:`PlanCache` the search
        step disappears and only execution remains; ``kwargs`` are
        those of :meth:`submit` (bindings, priority, deadline, budget).

        When the dead-method set leaves *no* viable plan and
        ``allow_degraded`` is on, the request is served anyway: the
        query is evaluated over the accessible part of the surviving
        schema and the response comes back explicitly marked
        ``partial`` and ``degraded`` -- a sound under-approximation of
        the certain answers, never a silent wrong answer and never a
        per-request error storm.
        """
        try:
            plan = self.plan_for(query, search_options=search_options)
        except NoViablePlan:
            if not self.allow_degraded:
                raise
            return self._degraded_ticket(query, **kwargs)
        return self.submit(plan, **kwargs)

    def _degraded_ticket(
        self,
        query: ConjunctiveQuery,
        *,
        bindings: Optional[Mapping[object, object]] = None,
        priority: int = PRIORITY_NORMAL,
        deadline: Optional[float] = None,
        budget: Optional[ResourceBudget] = None,
        request_id: Optional[str] = None,
    ) -> Ticket:
        """Serve a no-viable-plan query from the accessible part, marked.

        The answer is computed synchronously (it reads the wrapped
        instance directly -- the simulation's ground truth restricted
        to what surviving methods can reveal, the same fallback
        :class:`~repro.exec.failover.FailoverExecutor` uses) and the
        ticket comes back already resolved with a ``partial`` +
        ``degraded`` response.  The request is fully accounted: it
        counts as served/partial in :meth:`health`, so the accounting
        identity holds with zero special cases.
        """
        with self._lock:
            if not (self._running and self._accepting):
                raise ServiceStopped(
                    f"service {self.name!r} is not accepting requests"
                )
            rid = request_id or f"q{next(self._ids)}"
        bound_query = self._bind_query(query, bindings)
        dead = self.current_dead_methods()
        schema = self.source.schema.without_methods(dead)
        started = perf_counter()
        part = accessible_part(schema, self.source.instance).as_instance()
        answers = part.evaluate(bound_query)
        table = NamedTable(
            tuple(variable.name for variable in bound_query.head),
            frozenset(answers),
        )
        request = QueryRequest(
            plan=None,  # no plan survives the dead set; served degraded
            bindings=bindings,
            priority=priority,
            deadline_seconds=deadline,
            budget=budget,
            request_id=rid,
            submitted_at=self.clock(),
        )
        ticket = Ticket(request)
        response = QueryResponse(
            rid,
            table=table,
            complete=False,
            partial=True,
            degraded=True,
            wall_time=perf_counter() - started,
        )
        ticket.resolve(response)
        with self._lock:
            self._in_flight += 1  # balances _account's decrement
        self._account(response)
        return ticket

    @staticmethod
    def _bind_query(
        query: ConjunctiveQuery,
        bindings: Optional[Mapping[object, object]],
    ) -> ConjunctiveQuery:
        """Substitute parameter constants into a query's body atoms."""
        if not bindings:
            return query
        mapping = {
            _to_constant(key): _to_constant(value)
            for key, value in bindings.items()
        }
        atoms = tuple(
            Atom(
                atom.relation,
                tuple(mapping.get(term, term) for term in atom.terms),
            )
            for atom in query.atoms
        )
        return ConjunctiveQuery(query.head, atoms, name=query.name)

    # ------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.take()
            if ticket is None:
                return
            with self._lock:
                self._in_flight += 1
            try:
                response = self._execute(ticket)
            except Exception as error:  # never leave a ticket hanging
                response = QueryResponse(
                    ticket.request.request_id,
                    error=(
                        error
                        if isinstance(error, ReproError)
                        else ExecutionError(
                            f"unexpected worker failure: {error!r}"
                        )
                    ),
                )
            if not response.degraded and self.method_health.dead_methods():
                # Anything served while the dead set is nonempty is
                # visibly flagged: the answer may be complete (a
                # re-planned full plan still computes the certain
                # answers) but the serving regime is degraded.
                response.degraded = True
            ticket.resolve(response)
            self._account(response)

    def _execute(self, ticket: Ticket) -> QueryResponse:
        """Run one admitted request in-process or on the execution tier.

        Either way the request goes through
        :func:`~repro.service.runtime.run_request`.  On a tier the
        response's ``wall_time`` is the whole round trip (hedge delay
        and shipping included), and the deadline's remainder bounds the
        wait; tier-level failures (a killed worker, a stall, a timeout)
        surface as typed errors on this ticket only.
        """
        request = ticket.request
        queue_wait = max(0.0, self.clock() - request.submitted_at)
        deadline = request.deadline(self.clock)
        if deadline is not None and deadline.expired:
            response = QueryResponse(
                request.request_id,
                error=DeadlineExceeded(
                    f"deadline of {request.deadline_seconds}s expired "
                    f"after {queue_wait:.3f}s in the admission queue"
                ),
                stats=ExecStats() if self.stats is not None else None,
            )
        elif self.worker_pool is None:
            response = run_request(request, self.runtime)
        else:
            started = perf_counter()
            try:
                response = self.worker_pool.run(
                    request,
                    self.runtime,
                    timeout=deadline.remaining() if deadline else None,
                )
            except ReproError as error:
                response = QueryResponse(
                    request.request_id,
                    error=error,
                    stats=ExecStats() if self.stats is not None else None,
                )
            response.wall_time = perf_counter() - started
        response.queue_wait = queue_wait
        if request.budget is not None:
            request.budget.truncated_rows = response.truncated_rows
        return response

    def _observe_outage(self, response: QueryResponse) -> None:
        """Mark the failing method dead on a hard-outage response.

        This is the feed of the method-health registry: a typed
        :class:`~repro.errors.MethodOutage` (direct from in-process
        execution, rebuilt with its method context from a worker-tier
        failure dict, or wrapped in a :class:`PlanFailed`) means the
        method is hard-down -- the *next* planning pass avoids it.
        """
        error = response.error
        if isinstance(error, PlanFailed) and error.cause is not None:
            error = error.cause
        if isinstance(error, MethodOutage):
            method = getattr(error, "method", None)
            if method:
                self.method_health.mark_dead(method)

    def _account(self, response: QueryResponse) -> None:
        # Fold the request's observed row flow into the calibration
        # store *outside* the service lock -- the store has its own --
        # so planning threads reading estimates never wait on accounting.
        if self.calibration is not None and response.stats is not None:
            try:
                self.calibration.observe_stats(
                    response.stats, relation_of=self._method_relations
                )
            except Exception:  # pragma: no cover -- feedback is advisory
                # The calibration fold must never stop the books from
                # balancing: the ticket is already resolved, and an
                # unaccounted request breaks served-counter invariants.
                pass
        if response.error is not None:
            self._observe_outage(response)
        with self._lock:
            self._in_flight -= 1
            self._served += 1
            if response.degraded:
                self._degraded_served += 1
            if response.complete:
                self._completed += 1
            elif response.partial:
                self._partial += 1
            else:
                self._failed += 1
            if response.wall_time:
                # EWMA feeding the retry-after hint.
                if self._mean_service_time:
                    self._mean_service_time = (
                        0.8 * self._mean_service_time
                        + 0.2 * response.wall_time
                    )
                else:
                    self._mean_service_time = response.wall_time
            if self.stats is not None and response.stats is not None:
                self.stats.merge(response.stats)
            self._idle.notify_all()

    def _resolve_shed(self, ticket: Ticket, error: ReproError) -> None:
        ticket.resolve(
            QueryResponse(ticket.request.request_id, error=error)
        )
        with self._lock:
            self._shed += 1

    def _retry_after_hint(self) -> float:
        """Expected seconds until capacity frees up (a hint, not a vow).

        Little's-law shape: (work waiting) x (mean service time) /
        (effective parallelism).  With an execution tier configured the
        effective width is the *narrower* of the service thread pool
        and the tier's worker count -- a 2-process tier behind 8
        service threads drains 2 requests at a time, not 8 -- and the
        tier's own backlog beyond this service's in-flight requests
        (hedge duplicates, other clients of a shared pool) counts as
        waiting work too.
        """
        with self._lock:
            mean = self._mean_service_time or _DEFAULT_SERVICE_TIME
            waiting = self._queue.depth() + self._in_flight
        width = self.workers
        if self.worker_pool is not None:
            tier_width = getattr(self.worker_pool, "workers", 0) or 0
            if tier_width:
                width = min(width, tier_width)
            try:
                backlog = self.worker_pool.backlog()
            except Exception:  # pragma: no cover -- defensive
                backlog = 0
            with self._lock:
                waiting += max(0, backlog - self._in_flight)
        return max(mean, waiting * mean / width)

    # ---------------------------------------------------------- inspection
    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or in flight (for tests/drains)."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._idle:
            while self._in_flight or self._queue.depth():
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining if remaining is not None else 0.1)
        return True

    @property
    def shed_count(self) -> int:
        """Requests shed so far (door rejections + preemptions + stop)."""
        with self._lock:
            return self._shed

    def health(self) -> ServiceHealth:
        """A point-in-time snapshot of queue, tiers, breakers and caches.

        ``worker_tier`` reports the execution tier's liveness (its
        ``alive`` flag goes false when a broken process pool could not
        be replaced -- the degradation is visible here, and requests
        fail with typed :class:`~repro.errors.WorkerCrashed`, never
        hang); ``plan_cache`` carries the hit/miss/invalidation
        counters and ``planned`` how often search actually ran.
        """
        worker_tier = (
            self.worker_pool.health() if self.worker_pool is not None else None
        )
        plan_cache = (
            self.plan_cache.counters() if self.plan_cache is not None else None
        )
        calibration = (
            self.calibration.counters()
            if self.calibration is not None
            else None
        )
        method_health = self.method_health.counters()
        with self._lock:
            method_health["replans"] = self._replans
            method_health["degraded_served"] = self._degraded_served
            return ServiceHealth(
                running=self._running,
                accepting=self._accepting,
                workers=self.workers,
                queue_depth=self._queue.depth(),
                queue_capacity=self._queue.capacity,
                in_flight=self._in_flight,
                served=self._served,
                completed=self._completed,
                partial=self._partial,
                failed=self._failed,
                shed=self._shed,
                rejected=self._queue.rejected,
                preempted=self._queue.preempted,
                mean_service_time=self._mean_service_time,
                breakers=self.breakers.states(),
                cache=(
                    self.runtime.cache.as_dict()
                    if self.runtime.cache is not None
                    else None
                ),
                stats=self.stats.as_dict() if self.stats is not None else None,
                worker_tier=worker_tier,
                plan_cache=plan_cache,
                planned=self._planned,
                calibration=calibration,
                rejected_inadmissible=self._rejected_inadmissible,
                method_health=method_health,
            )

    def __repr__(self) -> str:
        return f"QueryService({self.name}: {self.health().summary()})"
