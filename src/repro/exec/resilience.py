"""Fault tolerance for plan execution: retries, deadlines, breakers.

The execution runtime (PR 3) assumed every access method always
answers; this module is what makes a *flaky* method survivable and a
*dead* one detectable.  Three cooperating pieces, all with injectable
time so fault scenarios run deterministically in simulated seconds:

* :class:`RetryPolicy` -- exponential backoff with deterministic jitter
  (a seeded hash of ``(method, inputs, attempt)``, never ``random``),
  retrying exactly the :class:`~repro.errors.TransientAccessError`
  kinds; per-access attempt caps.
* :class:`Deadline` -- an overall wall-clock budget for a plan run;
  dispatch refuses to start (or to back off) past it, raising
  :class:`~repro.errors.DeadlineExceeded`.
* :class:`CircuitBreaker` / :class:`BreakerRegistry` -- the classic
  closed / open / half-open state machine, one breaker per access
  method.  Enough consecutive failures trip the breaker; while open,
  calls fail fast with :class:`~repro.errors.CircuitOpen` without
  touching the source; after the recovery window one probe is let
  through (half-open) and either closes or re-trips it.  A
  :class:`~repro.errors.MethodOutage` force-opens the breaker
  immediately -- hard outages should not burn the whole threshold.

:class:`ResilientDispatcher` ties them together and is what
:meth:`repro.plans.commands.AccessCommand.execute` calls per dispatched
access when a ``resilience`` argument is threaded through
:meth:`repro.plans.plan.Plan.execute`.  Its counters surface in
:class:`~repro.exec.stats.ExecStats` (retries, faults, breaker trips).
Plan-level *failover* -- re-planning around open breakers -- lives one
layer up, in :mod:`repro.exec.failover`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Type

from repro import errors
from repro.errors import (
    AccessError,
    CircuitOpen,
    DeadlineExceeded,
    MethodOutage,
    TransientAccessError,
)
from repro.faults.policy import unit_interval

Clock = Callable[[], float]
Sleep = Callable[[float], None]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and an attempt cap.

    ``max_attempts`` counts the first try: 1 means "never retry".  The
    wait before retry ``n`` (1-based) is ``base_delay * multiplier**(n-1)``
    capped at ``max_delay``, stretched by up to ``jitter`` of itself --
    where the stretch factor is a seeded hash of the access identity and
    attempt number, so two runs of the same workload back off
    identically (no thundering-herd *and* no flaky tests).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retry_on: Tuple[Type[BaseException], ...] = (TransientAccessError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether ``error`` on (1-based) ``attempt`` deserves another try."""
        return attempt < self.max_attempts and isinstance(
            error, self.retry_on
        )

    def delay(self, attempt: int, method: str = "", inputs: Tuple = ()) -> float:
        """Backoff before retry ``attempt`` (1-based), jitter included."""
        raw = self.base_delay * self.multiplier ** (attempt - 1)
        capped = min(raw, self.max_delay)
        stretch = unit_interval(self.seed, method, inputs, attempt)
        return capped * (1.0 + self.jitter * stretch)

    def as_dict(self) -> Dict:
        """A JSON-able representation; ``retry_on`` by error class name.

        Raises :class:`ValueError` for a ``retry_on`` class that is not
        one of :mod:`repro.errors`: it could not be named on decode.
        """
        for kind in self.retry_on:
            if getattr(errors, kind.__name__, None) is not kind:
                raise ValueError(
                    f"retry_on class {kind.__name__} is not in repro.errors"
                )
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "multiplier": self.multiplier,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
            "seed": self.seed,
            "retry_on": [kind.__name__ for kind in self.retry_on],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RetryPolicy":
        """Inverse of :meth:`as_dict` (error names from :mod:`repro.errors`)."""
        fields = dict(data)
        fields["retry_on"] = tuple(
            getattr(errors, name) for name in fields["retry_on"]
        )
        return cls(**fields)


class Deadline:
    """An absolute time budget shared by everything in one plan run."""

    def __init__(self, seconds: float, clock: Clock = time.monotonic) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be positive")
        self.seconds = seconds
        self.clock = clock
        self.started = clock()

    @property
    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self.remaining() <= 0

    def remaining(self) -> float:
        """Seconds left (negative when past the deadline)."""
        return self.seconds - (self.clock() - self.started)

    def check(self, doing: str = "execution") -> None:
        """Raise :class:`DeadlineExceeded` when the budget has run out."""
        if self.expired:
            raise DeadlineExceeded(
                f"plan deadline of {self.seconds}s expired during {doing} "
                f"({-self.remaining():.3f}s over)"
            )

    def __repr__(self) -> str:
        return f"Deadline({self.remaining():.3f}s of {self.seconds}s left)"


class CircuitBreaker:
    """Closed / open / half-open breaker for one access method.

    State transitions are serialized by an internal lock, so one
    breaker may be shared by every worker of a concurrent service; the
    allow/record protocol itself stays check-then-report (two calls),
    which is the standard breaker contract -- a probe admitted by one
    thread may overlap another thread's failure report, and the state
    machine is correct under any interleaving of reports.
    """

    def __init__(
        self,
        method: str,
        failure_threshold: int = 3,
        recovery_time: float = 30.0,
        half_open_successes: int = 1,
        clock: Clock = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if half_open_successes < 1:
            raise ValueError("half_open_successes must be at least 1")
        self.method = method
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_successes = half_open_successes
        self.clock = clock
        self.state = CLOSED
        self.trips = 0
        self.forced = False  # opened by a MethodOutage: never half-opens
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """Whether a call may proceed now (may move open -> half-open)."""
        with self._lock:
            if self.state == OPEN:
                if self.forced:
                    return False
                if self.clock() - self._opened_at >= self.recovery_time:
                    self.state = HALF_OPEN
                    self._probe_successes = 0
                    return True
                return False
            return True

    def record_success(self) -> None:
        """Feed back a successful call."""
        with self._lock:
            if self.state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_successes:
                    self.state = CLOSED
                    self._consecutive_failures = 0
            else:
                self._consecutive_failures = 0

    def record_failure(self, permanent: bool = False) -> None:
        """Feed back a failed call; ``permanent`` force-opens."""
        with self._lock:
            self._consecutive_failures += 1
            if permanent:
                self.forced = True
            if self.state == HALF_OPEN or permanent or (
                self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        # Caller holds self._lock.
        if self.state != OPEN:
            self.trips += 1
        self.state = OPEN
        self._opened_at = self.clock()
        self._probe_successes = 0

    def reset(self) -> None:
        """Close the breaker unconditionally (operator/recovery action).

        This is the one transition the state machine cannot take by
        itself: a *forced*-open breaker (hard :class:`MethodOutage`)
        never half-opens, so when the outage is known to be over --
        an operator says so, or the service's method-health recovery
        loop does -- the breaker must be reset explicitly.  Clears the
        forced flag and the failure run; ``trips`` history is kept.
        """
        with self._lock:
            self.state = CLOSED
            self.forced = False
            self._consecutive_failures = 0
            self._probe_successes = 0

    def refuse(self, inputs: Tuple = ()) -> CircuitOpen:
        """The error describing why a call was refused right now."""
        return CircuitOpen(
            f"circuit open ({self._consecutive_failures} consecutive "
            f"failures{', hard outage' if self.forced else ''})",
            method=self.method,
            inputs=inputs,
        )

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.method}: {self.state}, {self.trips} trips)"


class BreakerRegistry:
    """One lazily created breaker per access method, shared settings."""

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_time: float = 30.0,
        half_open_successes: int = 1,
        clock: Clock = time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_successes = half_open_successes
        self.clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def for_method(self, method: str) -> CircuitBreaker:
        """The breaker guarding one method (created on first use)."""
        with self._lock:
            breaker = self._breakers.get(method)
            if breaker is None:
                breaker = CircuitBreaker(
                    method,
                    failure_threshold=self.failure_threshold,
                    recovery_time=self.recovery_time,
                    half_open_successes=self.half_open_successes,
                    clock=self.clock,
                )
                self._breakers[method] = breaker
            return breaker

    def _snapshot(self) -> Tuple[Tuple[str, CircuitBreaker], ...]:
        with self._lock:
            return tuple(self._breakers.items())

    def open_methods(self) -> Tuple[str, ...]:
        """Methods whose breaker is currently open, sorted."""
        return tuple(
            sorted(
                name
                for name, breaker in self._snapshot()
                if breaker.state == OPEN
            )
        )

    def forced_open_methods(self) -> Tuple[str, ...]:
        """Methods force-opened by a hard outage (never self-recover)."""
        return tuple(
            sorted(
                name
                for name, breaker in self._snapshot()
                if breaker.state == OPEN and breaker.forced
            )
        )

    def reset_method(self, method: str) -> bool:
        """Reset one method's breaker if it exists; True when it did."""
        with self._lock:
            breaker = self._breakers.get(method)
        if breaker is None:
            return False
        breaker.reset()
        return True

    def states(self) -> Dict[str, str]:
        """Method -> breaker state, a point-in-time health snapshot."""
        return {name: breaker.state for name, breaker in self._snapshot()}

    @property
    def trips(self) -> int:
        """Total breaker trips across all methods."""
        return sum(b.trips for _, b in self._snapshot())

    def __repr__(self) -> str:
        return (
            f"BreakerRegistry({len(self._breakers)} breakers, "
            f"{self.trips} trips, open={list(self.open_methods())})"
        )


@dataclass
class ResilientDispatcher:
    """Retry + breaker + deadline wrapping of single access dispatches.

    ``sleep`` is what backoff waits call; the default ``None`` records
    the wait (``backoff_waited``) without blocking, which is right for
    simulations and benchmarks -- pass ``time.sleep`` (or a
    :meth:`VirtualClock.sleep <repro.faults.clock.VirtualClock.sleep>`)
    when waiting matters.

    A dispatcher's *counters* are plain attributes and therefore
    per-request state: concurrent callers must not share one dispatcher.
    The shareable parts -- the (locked) breaker registry, the frozen
    retry policy, the sleep callable -- are exactly what :meth:`fork`
    carries into a fresh per-request dispatcher, which is how the
    :class:`~repro.service.QueryService` and the concurrent batch path
    give every request its own counters over one breaker state.
    """

    retry: Optional[RetryPolicy] = None
    breakers: Optional[BreakerRegistry] = None
    deadline: Optional[Deadline] = None
    sleep: Optional[Sleep] = None
    # Counters (snapshotted by AccessCommand.execute into CommandStats).
    retries: int = 0
    faults: int = 0
    giveups: int = 0
    backoff_waited: float = 0.0

    def fork(self, deadline: Optional[Deadline] = None) -> "ResilientDispatcher":
        """A fresh dispatcher sharing policy and breakers, own counters.

        ``deadline`` overrides the per-request deadline (``None`` keeps
        this dispatcher's, which is correct when one deadline is meant
        to cover a whole batch).
        """
        return ResilientDispatcher(
            retry=self.retry,
            breakers=self.breakers,
            deadline=deadline if deadline is not None else self.deadline,
            sleep=self.sleep,
        )

    def check_deadline(self, doing: str = "execution") -> None:
        """Deadline check usable between commands, not just per access."""
        if self.deadline is not None:
            self.deadline.check(doing)

    def call(
        self,
        fetch: Callable[[], object],
        method: str,
        inputs: Tuple = (),
        relation: Optional[str] = None,
    ):
        """Run one access dispatch with retries, breaker and deadline.

        ``fetch`` is the zero-argument thunk that actually touches the
        source (directly or through the access cache).  Transient
        errors are retried per the policy; permanent ones propagate
        immediately with the breaker informed either way.
        """
        breaker = (
            self.breakers.for_method(method)
            if self.breakers is not None
            else None
        )
        attempt = 0
        while True:
            self.check_deadline(f"access {method}")
            if breaker is not None and not breaker.allow():
                raise breaker.refuse(inputs)
            attempt += 1
            try:
                result = fetch()
            except TransientAccessError as error:
                self.faults += 1
                if breaker is not None:
                    breaker.record_failure()
                if self.retry is None or not self.retry.should_retry(
                    error, attempt
                ):
                    self.giveups += 1
                    error.attempts = attempt
                    raise
                wait = self.retry.delay(attempt, method, inputs)
                if (
                    self.deadline is not None
                    and wait > self.deadline.remaining()
                ):
                    self.giveups += 1
                    raise DeadlineExceeded(
                        f"backoff of {wait:.3f}s before retrying {method} "
                        f"would overrun the plan deadline "
                        f"(remaining {self.deadline.remaining():.3f}s)"
                    ) from error
                self.backoff_waited += wait
                if self.sleep is not None:
                    self.sleep(wait)
                self.retries += 1
            except AccessError as error:
                # Permanent: breaker learns, caller decides (failover).
                if breaker is not None:
                    breaker.record_failure(
                        permanent=isinstance(error, MethodOutage)
                    )
                error.attempts = attempt
                raise
            else:
                if breaker is not None:
                    breaker.record_success()
                return result

    @property
    def breaker_trips(self) -> int:
        """Total trips across the registry (0 without breakers)."""
        return self.breakers.trips if self.breakers is not None else 0

    def summary(self) -> str:
        """A one-line human-readable digest."""
        return (
            f"{self.retries} retries, {self.faults} faults seen, "
            f"{self.giveups} giveups, {self.breaker_trips} breaker trips, "
            f"{self.backoff_waited:.2f}s backoff"
        )
