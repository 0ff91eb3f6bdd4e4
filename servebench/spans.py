"""Benchmark-side tracing: spans around calls into each layer.

Nothing here reaches inside ``src/``.  A traced request is timed at the
public boundaries the client crosses (``QueryService.plan_for``,
``submit``, ``Ticket.result``), and by thin proxies the benchmark hands
the service:

* :class:`TracedPlanCache` times plan-cache lookups and stores in the
  client thread; a miss followed by a store brackets the search;
* :class:`TracedPlan` wraps the plan a request submits, so the worker
  thread that runs ``Plan.execute`` publishes which request it serves;
* :class:`TracedCache` times every ``AccessCache.fetch``;
* :class:`TracedSource` times every ``access`` / ``access_batch`` call
  into the backend (in-process tiers only -- a worker process has its
  own source).

The queue span comes from the service's admission stamp and the
response's ``queue_wait`` (same monotonic clock).  The per-command
breakdown comes from the response's ``ExecStats``, which carries
durations but no start times: command spans are laid back to back from
the start of ``Plan.execute`` (on the process tier, from the middle of
the shipping interval), with the time between commands spread evenly.
Proxy events carry real timestamps and are attached to the access
command of the same method nearest in time.

A layer's self time is its span's duration minus the time its child
spans cover; the root span's self time is time no span covers (thread
hand-offs), reported as unattributed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.exec.cache import AccessCache
from repro.planner.plan_cache import PlanCache

#: Layers in the order the ledger prints them (module names of src/).
LAYERS = (
    "client",
    "service",
    "service.workers",
    "planner",
    "plans",
    "exec",
    "sources",
)


@dataclass
class Span:
    """One timed interval of one request."""

    name: str
    layer: Optional[str]  # None for the root: its self time is unattributed
    start: float
    end: float
    parent: Optional[int]  # index into the request's span list
    request_id: str

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass
class RequestTrace:
    """Raw timestamps gathered while one traced request is served."""

    exec_start: Optional[float] = None
    exec_end: Optional[float] = None
    # (name, method, keys, start, end) per proxied call, in call order.
    events: List[tuple] = field(default_factory=list)


class Tracer:
    """Which traced request the current thread is executing."""

    def __init__(self) -> None:
        self._local = threading.local()

    def current(self) -> Optional[RequestTrace]:
        return getattr(self._local, "trace", None)

    def bind(self, trace: Optional[RequestTrace]) -> None:
        self._local.trace = trace


class TracedPlan:
    """A plan whose ``execute`` marks the worker thread with its request."""

    def __init__(self, plan, trace: RequestTrace, tracer: Tracer) -> None:
        self._plan = plan
        self._trace = trace
        self._tracer = tracer

    def execute(self, source, **kwargs):
        self._tracer.bind(self._trace)
        self._trace.exec_start = perf_counter()
        try:
            return self._plan.execute(source, **kwargs)
        finally:
            self._trace.exec_end = perf_counter()
            self._tracer.bind(None)

    def __getattr__(self, name):
        return getattr(self._plan, name)


class TracedSource:
    """Times backend calls made on behalf of a traced request."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self._tracer = tracer
        # Expose access_batch only when the backend has it: the
        # interpreter takes the batch path whenever the attribute exists.
        if callable(getattr(inner, "access_batch", None)):
            self.access_batch = self._access_batch

    def access(self, method_name, inputs=()):
        trace = self._tracer.current()
        if trace is None:
            return self.inner.access(method_name, inputs)
        start = perf_counter()
        try:
            return self.inner.access(method_name, inputs)
        finally:
            trace.events.append(
                ("sources.access", method_name, 1, start, perf_counter())
            )

    def _access_batch(self, method_name, inputs_list):
        trace = self._tracer.current()
        if trace is None:
            return self.inner.access_batch(method_name, inputs_list)
        start = perf_counter()
        try:
            return self.inner.access_batch(method_name, inputs_list)
        finally:
            trace.events.append(
                (
                    "sources.access_batch",
                    method_name,
                    len(inputs_list),
                    start,
                    perf_counter(),
                )
            )

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TracedCache(AccessCache):
    """An :class:`AccessCache` whose fetches are timed when traced."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self._tracer = tracer

    def fetch(self, source, method, inputs):
        trace = self._tracer.current()
        if trace is None:
            return super().fetch(source, method, inputs)
        start = perf_counter()
        try:
            return super().fetch(source, method, inputs)
        finally:
            trace.events.append(
                ("exec.cache_fetch", method, 1, start, perf_counter())
            )


class TracedPlanCache(PlanCache):
    """A :class:`PlanCache` whose lookups and stores are timed when traced.

    ``plan_for`` runs in the client thread: a miss followed by a store
    brackets the Algorithm 1 search that ran in between.
    """

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self._tracer = tracer

    def get(self, key):
        trace = self._tracer.current()
        if trace is None:
            return super().get(key)
        start = perf_counter()
        hit = super().get(key)
        trace.events.append(
            ("planner.cache_get", "hit" if hit else "miss", 0, start, perf_counter())
        )
        return hit

    def put(self, key, plan, cost, meta=None):
        trace = self._tracer.current()
        if trace is None:
            return super().put(key, plan, cost, meta=meta)
        start = perf_counter()
        try:
            return super().put(key, plan, cost, meta=meta)
        finally:
            trace.events.append(("planner.cache_put", "", 0, start, perf_counter()))


# ------------------------------------------------------------ span trees
def request_spans(record, process_tier: bool) -> List[Span]:
    """The span tree of one traced request record (root first)."""
    rid = record.request_id
    spans: List[Span] = []
    events = record.trace.events if record.trace is not None else []

    def add(name, layer, start, end, parent):
        spans.append(Span(name, layer, start, end, parent, rid))
        return len(spans) - 1

    begin = record.t_due if record.t_due is not None else record.t_start
    root = add("request", None, begin, record.t_done, None)
    if record.t_due is not None:
        add("client.lateness", "client", record.t_due, record.t_start, root)
    plan_for = add("planner.plan_for", "planner", record.t_start, record.t_planned, root)
    miss_end = None
    for name, outcome, _keys, start, end in events:
        if name == "planner.cache_get":
            add(name, "planner", start, end, plan_for)
            miss_end = end if outcome == "miss" else None
        elif name == "planner.cache_put":
            if miss_end is not None:
                add("planner.search", "planner", miss_end, start, plan_for)
            add(name, "planner", start, end, plan_for)
    add("service.submit", "service", record.t_planned, record.t_submitted, root)
    response = record.response
    if response is None or record.submitted_at is None:
        return spans
    # The service stamps admission on the same monotonic clock.  The
    # hand-offs around the queue and the run (worker wake-up, resolving
    # the ticket, waking the client) have no span: they are unattributed.
    queue_end = record.submitted_at + response.queue_wait
    add("service.queue", "service", record.submitted_at, queue_end, root)
    stats = response.stats
    if process_tier:
        ship = add(
            "service.workers.ship",
            "service.workers",
            queue_end,
            queue_end + response.wall_time,
            root,
        )
        exec_time = stats.wall_time if stats is not None else 0.0
        exec_start = queue_end + max(0.0, response.wall_time - exec_time) / 2
        execute = add(
            "plans.execute", "plans", exec_start, exec_start + exec_time, ship
        )
    else:
        trace = record.trace
        if trace is None or trace.exec_start is None:
            return spans
        exec_start = trace.exec_start
        execute = add(
            "plans.execute", "plans", trace.exec_start, trace.exec_end, root
        )
    if stats is None:
        return spans
    access_spans: List[tuple] = []  # (span index, method)
    # Commands ran back to back; the interpreter's bookkeeping between
    # them is spread evenly over the gaps so proxy events line up.
    busy = sum(command.wall_time for command in stats.commands)
    gap = max(0.0, spans[execute].duration - busy) / (len(stats.commands) + 1)
    at = exec_start
    for command in stats.commands:
        at += gap
        end = at + command.wall_time
        if command.kind == "access":
            # On the process tier the backend sits inside the command and
            # cannot be proxied: the whole access command is backend time.
            name, layer = (
                ("sources.access_command", "sources")
                if process_tier
                else ("plans.access_command", "plans")
            )
            access_spans.append((add(name, layer, at, end, execute), command.method))
        else:
            add("plans.middleware", "plans", at, end, execute)
        at = end
    fetches: List[int] = []
    for name, method, _keys, start, end in events:
        if name.startswith("planner."):
            continue
        parent = None
        if name.startswith("sources."):
            for index in reversed(fetches):
                if spans[index].start <= start and end <= spans[index].end:
                    parent = index
                    break
        if parent is None:
            parent = _nearest_command(spans, access_spans, method, start, end)
        index = add(name, name.split(".")[0], start, end, parent)
        if name == "exec.cache_fetch":
            fetches.append(index)
    return spans


def _nearest_command(spans, access_spans, method, start, end) -> int:
    """The access-command span of ``method`` closest to [start, end]."""
    best, best_gap = None, None
    for index, command_method in access_spans:
        if command_method != method:
            continue
        span = spans[index]
        gap = max(0.0, span.start - start) + max(0.0, end - span.end)
        if best_gap is None or gap < best_gap:
            best, best_gap = index, gap
    if best is None:  # pragma: no cover -- a proxied call with no command
        return 0
    return best


def self_times(spans: List[Span]) -> Dict[Optional[str], float]:
    """Seconds of self time per layer; key None is unattributed time."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: Dict[Optional[str], float] = {}
    for index, span in enumerate(spans):
        covered = _covered(span, children.get(index, ()))
        totals[span.layer] = totals.get(span.layer, 0.0) + span.duration - covered
    return totals


def _covered(parent: Span, children) -> float:
    """Length of the parent's interval that its children cover."""
    clipped = sorted(
        (max(child.start, parent.start), min(child.end, parent.end))
        for child in children
    )
    total, reach = 0.0, parent.start
    for start, end in clipped:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total
