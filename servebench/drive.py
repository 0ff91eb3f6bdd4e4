"""Load generation: a seeded request stream, open and closed loops.

Load comes from this one process with at most two client threads.  A
closed loop runs two clients that each send their next request when the
previous one is answered.  The open loop runs one generator thread that
submits on a fixed schedule and one collector thread that waits on the
tickets in submission order; each request is timed from when it was
due, so a stall also charges the requests queued behind it.  (A request
that finishes before an earlier one is timed when the collector reaches
it; with millisecond requests on two service workers that adds little.)

Every response is checked against the in-memory oracle right after it
is timed.  A complete response whose rows differ fails the run.
"""

from __future__ import annotations

import itertools
import queue
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.errors import ReproError

from metrics import access_cost
from spans import RequestTrace, TracedPlan, Tracer

#: Seconds a client waits on one ticket before counting it failed.
RESULT_TIMEOUT = 60.0
#: Client threads of a closed loop (the open loop uses two as well).
CLIENTS = 2


@dataclass
class Record:
    """What the client saw of one request."""

    query: int
    request_id: str
    traced: bool
    t_due: Optional[float]  # open loop: when the request was due
    t_start: float
    t_planned: Optional[float] = None  # traced only: plan_for returned
    t_submitted: Optional[float] = None
    t_done: Optional[float] = None
    submitted_at: Optional[float] = None  # the service's admission stamp
    response: object = None  # kept for traced requests only
    ticket: object = None
    error: Optional[str] = None
    trace: Optional[RequestTrace] = None
    complete: bool = False
    mismatch: bool = False
    cost: float = 0.0  # the paper's access cost of the served plan

    @property
    def latency(self) -> float:
        """Seconds from due (or sent) to answered; infinite if not complete."""
        if not self.complete:
            return float("inf")
        begin = self.t_due if self.t_due is not None else self.t_start
        return self.t_done - begin


class Stream:
    """The seeded request stream: shuffled passes over a fixed mix.

    Each pass holds the query indices of ``mix`` (with repeats), so the
    mix is exact over whole passes and only the order depends on the
    seed.  ``on_pass`` runs before a pass starts, while no client is
    inside it.
    """

    def __init__(
        self,
        seed: int,
        mix: List[int],
        on_pass: Optional[Callable[[], None]] = None,
    ) -> None:
        self._rng = random.Random(seed)
        self._mix = list(mix)
        self._on_pass = on_pass
        self.pending: deque = deque()

    def new_pass(self) -> None:
        if self._on_pass is not None:
            self._on_pass()
        mix = list(self._mix)
        self._rng.shuffle(mix)
        self.pending.extend(mix)

    def take(self) -> Optional[int]:
        """The next query of the current pass, or None when it is done."""
        try:
            return self.pending.popleft()
        except IndexError:
            return None


class Requester:
    """Sends requests to one rig and checks every answer."""

    def __init__(self, rig, inputs, tracer: Optional[Tracer]) -> None:
        self.rig = rig
        self.inputs = inputs
        self.tracer = tracer
        self._ids = itertools.count(1)

    def begin(self, query: int, traced: bool, t_due: Optional[float] = None) -> Record:
        """Plan and admit one request (split into two calls when traced)."""
        service = self.rig.service
        record = Record(
            query, f"r{next(self._ids)}", traced, t_due, perf_counter()
        )
        try:
            if traced:
                record.trace = RequestTrace()
                self.tracer.bind(record.trace)
                try:
                    plan = service.plan_for(self.inputs.queries[query])
                finally:
                    self.tracer.bind(None)
                record.t_planned = perf_counter()
                if not self.rig.process_tier:
                    plan = TracedPlan(plan, record.trace, self.tracer)
                record.ticket = service.submit(plan, request_id=record.request_id)
            else:
                record.ticket = service.submit_query(
                    self.inputs.queries[query], request_id=record.request_id
                )
            record.t_submitted = perf_counter()
            record.submitted_at = record.ticket.request.submitted_at
        except ReproError as error:  # shed or rejected at the door
            record.t_done = perf_counter()
            record.error = f"{type(error).__name__}: {error}"
        return record

    def finish(self, record: Record) -> Record:
        """Wait for the answer, time it, then check it against the oracle."""
        if record.ticket is None:
            return record
        try:
            record.response = record.ticket.result(RESULT_TIMEOUT)
        except TimeoutError as error:
            record.error = str(error)
        record.t_done = perf_counter()
        record.ticket = None
        response = record.response
        if response is None:
            return record
        if response.error is not None:
            record.error = f"{type(response.error).__name__}: {response.error}"
        record.complete = response.complete
        if record.complete:
            record.mismatch = (
                frozenset(response.table.rows) != self.inputs.oracle[record.query]
            )
            record.cost = access_cost(response, self.inputs.schema)
        if not record.traced:
            # Untraced records keep no answers, so the benchmark's own
            # memory does not grow with the program's throughput.
            record.response = None
        return record


def closed_loop(
    requester: Requester, stream: Stream, seconds: float, traced: bool, clients: int
) -> Tuple[List[Record], float]:
    """``clients`` threads send back to back for ``seconds``.

    Passes run with a barrier between them, so the per-pass hook (the
    cold workload empties the plan cache) never races a request.
    """
    records: List[Record] = []
    lock = threading.Lock()
    started = perf_counter()
    deadline = started + seconds

    def client() -> None:
        mine = []
        while perf_counter() < deadline:
            query = stream.take()
            if query is None:
                break
            mine.append(requester.finish(requester.begin(query, traced)))
        with lock:
            records.extend(mine)

    while perf_counter() < deadline:
        if not stream.pending:
            stream.new_pass()
        _run_threads([client] * clients)
    return records, perf_counter() - started


def open_loop(
    requester: Requester, stream: Stream, seconds: float, traced: bool, rate: float
) -> Tuple[List[Record], float]:
    """Requests due every ``1/rate`` seconds for ``seconds``."""
    records: List[Record] = []
    handoff: "queue.Queue[Optional[Record]]" = queue.Queue()
    started = perf_counter()
    count = max(1, int(seconds * rate))

    def generator() -> None:
        try:
            for index in range(count):
                due = started + index / rate
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                query = stream.take()
                if query is None:
                    stream.new_pass()
                    query = stream.take()
                handoff.put(requester.begin(query, traced, t_due=due))
        finally:
            handoff.put(None)

    def collector() -> None:
        while True:
            record = handoff.get()
            if record is None:
                return
            records.append(requester.finish(record))

    _run_threads([generator, collector])
    return records, perf_counter() - started


def _run_threads(targets) -> None:
    """Run each target in its own thread, join all, re-raise any failure."""
    failures: List[BaseException] = []

    def guarded(target):
        try:
            target()
        except BaseException as error:  # re-raised below, in the caller
            failures.append(error)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def drive(workload, requester, stream, seconds, traced):
    """Run the workload's loop for ``seconds``; returns (records, elapsed)."""
    if workload.loop == "open":
        return open_loop(requester, stream, seconds, traced, workload.rate)
    return closed_loop(requester, stream, seconds, traced, CLIENTS)
