"""The structured exception hierarchy for the whole reproduction.

Historically each layer raised its own ad-hoc ``RuntimeError`` subclass
(``AccessViolation`` in the data layer, ``EvaluationError`` in the plan
evaluator, ``PlanningError`` in the planner, ...).  This module is the
one place those types live now, arranged so callers can catch at the
right altitude:

* :class:`ReproError` -- everything raised by this package on purpose.
  It subclasses :class:`RuntimeError` so pre-existing ``except
  RuntimeError`` call sites keep working.
* :class:`AccessError` -- anything that went wrong *talking to a
  source*.  Every instance carries the offending ``method``,
  ``relation`` and ``inputs`` so a failure deep inside a plan run can be
  reported (and acted on -- see :mod:`repro.exec.resilience`) without
  re-deriving the context from a message string.
* :class:`TransientAccessError` -- the retryable subset (the paper's
  sources are remote services: they time out, rate-limit, and come
  back).  :class:`~repro.exec.resilience.RetryPolicy` retries exactly
  these by default; everything else is permanent.

The old names remain importable from their original modules
(``repro.data.source.AccessViolation``,
``repro.data.decorators.SourceUnavailable``, ...) as aliases of the
classes here, so no existing import or ``except`` clause breaks.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


class ReproError(RuntimeError):
    """Base class of every deliberate error raised by this package."""


# ------------------------------------------------------------ access layer
class AccessError(ReproError):
    """A failure while invoking an access method on a source.

    ``method``, ``relation`` and ``inputs`` identify the exact access
    that failed; the rendered message always includes whatever context
    was supplied.  ``attempts`` is filled in by the retry machinery when
    an error is re-raised after its last allowed attempt.
    """

    def __init__(
        self,
        message: str,
        *,
        method: Optional[str] = None,
        relation: Optional[str] = None,
        inputs: Optional[Sequence[object]] = None,
        attempts: Optional[int] = None,
    ) -> None:
        self.method = method
        self.relation = relation
        self.inputs = tuple(inputs) if inputs is not None else None
        self.attempts = attempts
        context = self.context()
        super().__init__(f"{message} [{context}]" if context else message)

    def context(self) -> str:
        """The ``key=value`` rendering of whatever context is known."""
        parts = []
        if self.method is not None:
            parts.append(f"method={self.method}")
        if self.relation is not None:
            parts.append(f"relation={self.relation}")
        if self.inputs is not None:
            parts.append(f"inputs={tuple(self.inputs)!r}")
        if self.attempts is not None:
            parts.append(f"attempts={self.attempts}")
        return ", ".join(parts)


class AccessViolation(AccessError):
    """Data was requested in a way the schema forbids (caller bug)."""


class AccessBudgetExceeded(AccessError):
    """A budgeted source refused an access beyond its allowance."""


class MethodOutage(AccessError):
    """A hard, permanent outage of one access method.  Not retryable."""


class CircuitOpen(AccessError):
    """An access was refused because the method's circuit breaker is open.

    Raised *without* touching the source: the breaker has seen enough
    consecutive failures that further calls are presumed wasted until
    the recovery window elapses.
    """


class TransientAccessError(AccessError):
    """A failure that may not recur: retrying the same access is sensible."""


class SourceUnavailable(TransientAccessError):
    """The source did not answer (connection refused, 5xx, injected)."""


class AccessTimeout(TransientAccessError):
    """The access took longer than the caller was willing to wait."""


class RateLimited(TransientAccessError):
    """The source refused the access because of call-rate policing."""


class ResultTruncated(TransientAccessError):
    """The source answered with a truncated (result-bounded) tuple set.

    ``rows`` carries the partial answer, so a caller that cannot retry
    may still choose to accept it (explicitly, never silently).
    """

    def __init__(self, message: str, *, rows=frozenset(), **context) -> None:
        super().__init__(message, **context)
        self.rows = rows


# -------------------------------------------------------------- cost layer
class CostModelError(ReproError):
    """A failure inside a cost model or its calibration machinery."""


class InvalidCostParameter(CostModelError):
    """A cost-model knob was given a value outside its sound range.

    Raised at *construction* time (e.g. a selectivity outside ``(0, 1]``
    would silently produce non-monotone or negative costs), so a
    misconfigured estimator can never reach the planner.  ``parameter``
    names the knob and ``value`` carries the offending value.
    """

    def __init__(
        self, message: str, *, parameter: str = "", value: object = None
    ) -> None:
        self.parameter = parameter
        self.value = value
        super().__init__(message)


# -------------------------------------------------------------- exec layer
class ExecutionError(ReproError):
    """A failure while evaluating a plan or relational expression."""


class DeadlineExceeded(ExecutionError):
    """The overall plan deadline expired before execution finished."""


class PlanCancelled(ExecutionError):
    """A cooperative cancellation token stopped the plan between commands.

    Raised by :meth:`Plan.execute <repro.plans.plan.Plan.execute>` when
    its ``cancel`` event is set -- e.g. a hedged duplicate whose twin
    already won.  The run produced no answer *by request*, so callers
    that cancelled simply discard the worker's error result.
    """


class PlanFailed(ExecutionError):
    """A plan run gave up: retries exhausted or a permanent access error.

    ``cause`` is the final :class:`AccessError`; ``plan`` names the plan.
    """

    def __init__(
        self, message: str, *, plan: Optional[str] = None, cause=None
    ) -> None:
        self.plan = plan
        self.cause = cause
        super().__init__(message)


class NoViablePlan(ExecutionError):
    """Failover ran out of alternatives: no plan avoids the dead methods.

    ``dead_methods`` names the methods planning had to avoid.
    """

    def __init__(
        self, message: str, *, dead_methods: Tuple[str, ...] = ()
    ) -> None:
        self.dead_methods = tuple(dead_methods)
        super().__init__(message)


class RowBudgetExceeded(ExecutionError):
    """A per-request row budget tripped during plan execution.

    ``kind`` says which budget ("result" or "resident"); ``rows`` is the
    observed row count and ``budget`` the configured ceiling.  Raised by
    :meth:`Plan.execute <repro.plans.plan.Plan.execute>` when a
    :class:`~repro.exec.budget.ResourceBudget` forbids the overflow
    (resident-row overflows are always errors; result-row overflows only
    with ``on_result_overflow="error"`` -- the default degrades to a
    deterministically truncated, explicitly marked partial answer).
    """

    def __init__(
        self, message: str, *, kind: str = "result", rows: int = 0,
        budget: int = 0,
    ) -> None:
        self.kind = kind
        self.rows = rows
        self.budget = budget
        super().__init__(message)


# ----------------------------------------------------------- service layer
class ServiceError(ReproError):
    """A failure of the concurrent query service itself."""


class ServiceOverloaded(ServiceError):
    """Admission control refused (or shed) a request: the queue is full.

    ``queue_depth`` is the depth observed at rejection time and
    ``retry_after`` a best-effort hint (seconds) for when capacity is
    expected -- derived from the observed mean service time, never a
    promise.  ``shed`` distinguishes a queued request evicted by a
    higher-priority arrival (True) from a request rejected at the door
    (False).
    """

    def __init__(
        self,
        message: str,
        *,
        queue_depth: int = 0,
        retry_after: Optional[float] = None,
        shed: bool = False,
    ) -> None:
        self.queue_depth = queue_depth
        self.retry_after = retry_after
        self.shed = shed
        super().__init__(message)


class ServiceStopped(ServiceError):
    """A request was submitted to a draining or stopped service."""


class PlanInadmissible(ServiceError):
    """Admission control rejected a plan its static size bounds doom.

    Raised by :meth:`QueryService.submit
    <repro.service.service.QueryService.submit>` *before any execution*
    when a :class:`~repro.cost.bounds.SizeBounds` analyzer proves a
    finite worst-case ceiling on the plan's result (or resident) rows
    and that ceiling already exceeds the request's strict
    :class:`~repro.exec.budget.ResourceBudget` row ceiling.  The
    rejection is conservative: the *bound* is proven, the overflow is
    worst-case -- but under an error-mode budget the run could not be
    guaranteed to complete, and rejecting at the door costs zero source
    invocations instead of a mid-plan :class:`RowBudgetExceeded`.

    ``kind`` says which ceiling ("result" or "resident"), ``bound`` the
    proven worst-case row count and ``ceiling`` the budget's limit.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "result",
        bound: float = 0.0,
        ceiling: int = 0,
    ) -> None:
        self.kind = kind
        self.bound = bound
        self.ceiling = ceiling
        super().__init__(message)


class WorkerCrashed(ServiceError):
    """A worker process died while (or before) executing a request.

    Raised by the process worker tier when the pool reports a broken
    worker (killed, segfaulted, OOM-ed).  The affected request fails
    with this typed error instead of hanging; the pool itself is
    recreated so subsequent requests are served by fresh workers.
    ``restarts`` counts pool recreations observed so far.
    """

    def __init__(self, message: str, *, restarts: int = 0) -> None:
        self.restarts = restarts
        super().__init__(message)


class WorkerStalled(ServiceError):
    """A worker accepted a request and then stopped making progress.

    Raised by the worker tier's watchdog when a request exceeds its
    stall bound while its worker is *alive but stuck* (a hung source,
    a lost lock, a runaway loop) -- the failure mode a crash detector
    cannot see, because nothing died.  The process tier reclaims the
    slot by killing and recreating the pool (``killed`` is True);
    the thread tier cannot kill a thread, so it surfaces the stall
    typed and leaks the slot until the task finishes (``killed`` is
    False).  ``stalls`` counts stalls observed by the tier so far.
    """

    def __init__(
        self, message: str, *, stalls: int = 0, killed: bool = False
    ) -> None:
        self.stalls = stalls
        self.killed = killed
        super().__init__(message)


class UnsupportedOnTier(ServiceError):
    """A service was configured with knobs its execution tier cannot honour.

    Raised at construction, never mid-serving: a live object (an access
    cache, a breaker registry, a sleep hook) cannot cross a process
    boundary, so the process tier refuses it instead of dropping it.
    ``knobs`` names the offending constructor arguments; ``tier`` is
    the tier's kind.
    """

    def __init__(
        self, message: str, *, knobs: Sequence[str] = (), tier: str = ""
    ) -> None:
        self.knobs = tuple(knobs)
        self.tier = tier
        super().__init__(message)


# ------------------------------------------------------------- chase layer
class ChaseError(ReproError):
    """A failure inside the chase engine."""


class NonTerminatingChaseError(ChaseError):
    """The firing budget was exhausted and the policy said raise."""


class ChaseBudgetExceeded(ChaseError):
    """A chase step/wall-clock budget tripped before fixpoint.

    Carries the partial :class:`~repro.chase.stats.ChaseStats` (as
    ``stats``) plus the step count and elapsed seconds at the moment the
    budget tripped, so the caller can report how far the run got.
    """

    def __init__(
        self,
        message: str,
        *,
        stats=None,
        steps: int = 0,
        elapsed: float = 0.0,
    ) -> None:
        self.stats = stats
        self.steps = steps
        self.elapsed = elapsed
        super().__init__(message)


__all__ = [
    "AccessBudgetExceeded",
    "AccessError",
    "AccessTimeout",
    "AccessViolation",
    "ChaseBudgetExceeded",
    "ChaseError",
    "CircuitOpen",
    "CostModelError",
    "DeadlineExceeded",
    "ExecutionError",
    "InvalidCostParameter",
    "MethodOutage",
    "NoViablePlan",
    "NonTerminatingChaseError",
    "PlanCancelled",
    "PlanFailed",
    "PlanInadmissible",
    "RateLimited",
    "ReproError",
    "ResultTruncated",
    "RowBudgetExceeded",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceStopped",
    "SourceUnavailable",
    "TransientAccessError",
    "UnsupportedOnTier",
    "WorkerCrashed",
    "WorkerStalled",
]
