"""The one request-execution function every serving tier calls.

A complete plan computes the certain answers (Proposition 2), so what a
request returns -- and what it costs -- must not depend on which tier
ran it.  :func:`run_request` is therefore the *only* place a served
request is bound, budgeted, dispatched and marked:

* in-process, the service's own threads call it over the service's
  :class:`Runtime`;
* the thread tier calls it on a pool thread over that *same* runtime,
  so the service's access cache, breakers and sleep hook apply
  unchanged;
* the process tier calls it inside each worker over a per-worker
  runtime built once when the worker starts (rehydrated source, one
  breaker registry for the worker's lifetime).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

from repro.data.decorators import BudgetedSource
from repro.errors import ReproError
from repro.exec.batch import substitute_constants
from repro.exec.cache import AccessCache
from repro.exec.resilience import (
    BreakerRegistry,
    Clock,
    ResilientDispatcher,
    RetryPolicy,
    Sleep,
)
from repro.exec.stats import ExecStats
from repro.service.request import QueryRequest, QueryResponse


@dataclass(frozen=True)
class Runtime:
    """The shared state requests execute over.

    ``clock`` measures request deadlines from their submission stamp;
    ``collect_stats`` decides whether each response carries an
    :class:`~repro.exec.stats.ExecStats`.
    """

    source: Any
    cache: Optional[AccessCache] = None
    breakers: BreakerRegistry = field(default_factory=BreakerRegistry)
    retry: Optional[RetryPolicy] = None
    sleep: Optional[Sleep] = None
    executor: str = "interpreter"
    clock: Clock = time.monotonic
    collect_stats: bool = True


def run_request(
    request: QueryRequest, runtime: Runtime, *, cancel=None
) -> QueryResponse:
    """Execute one admitted request over ``runtime`` and mark the outcome.

    Substitutes the request's bindings, wraps the source in a
    :class:`~repro.data.decorators.BudgetedSource` when the budget caps
    accesses or cost, dispatches through a
    :class:`~repro.exec.resilience.ResilientDispatcher` over the
    runtime's breakers under the request's deadline, and returns a
    response marked complete, partial (the result-row budget truncated
    the answer) or failed with the typed error -- a
    :class:`~repro.errors.ReproError` is returned on the response, not
    raised.  The run uses a fresh copy of the request's budget, so
    concurrent copies of one request (hedge duplicates) never share
    truncation state.  ``cancel`` is the
    cooperative token :meth:`Plan.execute
    <repro.plans.plan.Plan.execute>` polls between commands.
    """
    plan = request.plan
    if request.bindings:
        plan = substitute_constants(plan, request.bindings)
    budget = request.budget.fresh() if request.budget is not None else None
    source = runtime.source
    if budget is not None and (
        budget.max_accesses is not None or budget.max_cost is not None
    ):
        source = BudgetedSource(
            source,
            max_invocations=budget.max_accesses,
            max_cost=budget.max_cost,
        )
    dispatcher = ResilientDispatcher(
        retry=runtime.retry,
        breakers=runtime.breakers,
        deadline=request.deadline(runtime.clock),
        sleep=runtime.sleep,
    )
    stats = ExecStats() if runtime.collect_stats else None
    started = perf_counter()
    try:
        table = plan.execute(
            source,
            cache=runtime.cache,
            stats=stats,
            resilience=dispatcher,
            budget=budget,
            executor=runtime.executor,
            cancel=cancel,
        )
    except ReproError as error:
        return QueryResponse(
            request.request_id,
            error=error,
            stats=stats,
            wall_time=perf_counter() - started,
        )
    truncated = budget.truncated_rows if budget is not None else 0
    return QueryResponse(
        request.request_id,
        table=table,
        complete=truncated == 0,
        partial=truncated > 0,
        truncated_rows=truncated,
        stats=stats,
        wall_time=perf_counter() - started,
    )
