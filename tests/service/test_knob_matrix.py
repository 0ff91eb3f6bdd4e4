"""Every ``QueryService`` argument is honoured or rejected on every tier.

One test per constructor argument, each run in-process, on the thread
tier and on the process tier.  An argument is either *observably*
honoured -- the response, the source's invocation count or the
service's health shows its effect -- or the service refuses it at
construction with typed :class:`~repro.errors.UnsupportedOnTier`.
Only live objects that cannot cross a process boundary (an access
cache, an explicit breaker registry, a sleep hook) are refused, and
only by the process tier.
"""

import itertools

import pytest

from repro.cost.bounds import SizeBounds
from repro.cost.calibration import CalibrationStore
from repro.data.decorators import LatencySource
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import (
    CircuitOpen,
    DeadlineExceeded,
    MethodOutage,
    NoViablePlan,
    PlanInadmissible,
    SourceUnavailable,
    UnsupportedOnTier,
)
from repro.exec.budget import ResourceBudget
from repro.exec.cache import AccessCache
from repro.exec.resilience import BreakerRegistry, RetryPolicy
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.logic.queries import parse_cq
from repro.planner.plan_cache import PlanCache
from repro.planner.search import SearchOptions, find_best_plan
from repro.schema.core import SchemaBuilder
from repro.service import (
    MethodHealthRegistry,
    ProcessWorkerPool,
    QueryService,
    ThreadWorkerPool,
)

pytestmark = pytest.mark.timeout(300)

TIERS = ["in-process", "thread", "process"]
QUERY = parse_cq("q(a, c) :- R(a, b) & S(b, c)")


def schema():
    return (
        SchemaBuilder("knobs")
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_S", "S", inputs=[], cost=1.0)
        .build()
    )


def memory():
    instance = Instance(
        {
            "R": [(f"a{i}", f"b{i % 3}") for i in range(12)],
            "S": [(f"b{i % 3}", f"c{i}") for i in range(12)],
        }
    )
    return InMemorySource(schema(), instance)


PLAN = find_best_plan(schema(), QUERY, SearchOptions(max_accesses=4)).best_plan


def faulty(**policy):
    return FaultInjectingSource(memory(), FaultPolicy(seed=0, **policy))


def always_failing():
    return faulty(unavailable_rate=1.0, burst=10**6)


def service_on(tier, source, **kwargs):
    """A service over ``source`` whose execution tier is ``tier``."""
    pool = None
    if tier == "thread":
        pool = ThreadWorkerPool(workers=2)
    elif tier == "process":
        pool = ProcessWorkerPool.for_source(
            source, workers=1, start_method="fork"
        )
    kwargs.setdefault("workers", 2)
    return QueryService(source, worker_pool=pool, **kwargs)


def serve(service, count=1, **kwargs):
    tickets = [service.submit(PLAN, **kwargs) for _ in range(count)]
    return [ticket.result(timeout=120) for ticket in tickets]


def oracle():
    return sorted(PLAN.execute(memory()).rows)


def rejects_on_process(tier, knob, **kwargs):
    """The process tier refuses ``knob``; returns True when it did."""
    if tier != "process":
        return False
    with pytest.raises(UnsupportedOnTier) as excinfo:
        service_on(tier, memory(), **kwargs)
    assert excinfo.value.knobs == (knob,)
    assert excinfo.value.tier == "process"
    return True


@pytest.mark.parametrize("tier", TIERS)
class TestKnobMatrix:
    def test_source(self, tier):
        with service_on(tier, memory()) as service:
            (response,) = serve(service)
        assert response.complete
        assert sorted(response.table.rows) == oracle()

    def test_workers(self, tier):
        with service_on(tier, memory(), workers=3) as service:
            assert service.health().workers == 3
            assert len(service._threads) == 3

    def test_max_queue(self, tier):
        with service_on(tier, memory(), max_queue=5) as service:
            assert service.health().queue_capacity == 5

    def test_cache(self, tier):
        if rejects_on_process(tier, "cache", cache=AccessCache()):
            return
        counts = {}
        for where in ("in-process", tier):
            source = memory()
            cache = AccessCache()
            with service_on(where, source, cache=cache) as service:
                responses = serve(service, count=8)
            assert all(r.complete for r in responses)
            assert cache.hits > 0
            counts[where] = source.total_invocations
        assert counts[tier] == counts["in-process"]

    def test_retry(self, tier):
        # Every access fails once, then answers.
        with service_on(tier, faulty(unavailable_rate=1.0, burst=1)) as bare:
            (failed,) = serve(bare)
        assert isinstance(failed.error, SourceUnavailable)
        retry = RetryPolicy(max_attempts=3, base_delay=0.001)
        source = faulty(unavailable_rate=1.0, burst=1)
        with service_on(tier, source, retry=retry) as service:
            (response,) = serve(service)
        assert response.complete
        assert response.stats.retries >= 1

    def test_breakers(self, tier):
        registry = BreakerRegistry(failure_threshold=1)
        if rejects_on_process(tier, "breakers", breakers=registry):
            return
        with service_on(tier, always_failing(), breakers=registry) as service:
            first, second = serve(service), serve(service)
        assert isinstance(first[0].error, SourceUnavailable)
        assert "open" in registry.states().values()
        assert isinstance(second[0].error, CircuitOpen)

    def test_default_breakers_trip_across_requests(self, tier):
        # Threshold 3: three requests fail one access each, and the
        # fourth finds the breaker open -- per worker on the process
        # tier, where one worker serves all four.
        with service_on(tier, always_failing(), workers=1) as service:
            errors = [serve(service)[0].error for _ in range(4)]
        assert all(isinstance(e, SourceUnavailable) for e in errors[:3])
        assert isinstance(errors[3], CircuitOpen)

    def test_sleep(self, tier):
        slept = []
        if rejects_on_process(tier, "sleep", sleep=slept.append):
            return
        source = faulty(unavailable_rate=1.0, burst=1)
        retry = RetryPolicy(max_attempts=3, base_delay=0.001)
        with service_on(
            tier, source, retry=retry, sleep=slept.append
        ) as service:
            (response,) = serve(service)
        assert response.complete
        assert slept and all(wait > 0 for wait in slept)

    def test_default_deadline(self, tier):
        source = LatencySource(memory(), 0.3)
        with service_on(tier, source, default_deadline=0.1) as service:
            (response,) = serve(service)
        assert isinstance(response.error, DeadlineExceeded)

    def test_default_budget(self, tier):
        budget = ResourceBudget(max_result_rows=3)
        with service_on(tier, memory(), default_budget=budget) as service:
            (response,) = serve(service)
        assert response.partial
        assert response.truncated_rows == len(oracle()) - 3
        assert sorted(response.table.rows) == oracle()[:3]

    def test_collect_stats(self, tier):
        with service_on(tier, memory(), collect_stats=False) as service:
            (response,) = serve(service)
            health = service.health()
        assert response.complete
        assert response.stats is None
        assert health.stats is None

    def test_clock(self, tier):
        # Each reading is 100 s after the last: a 10 s deadline has
        # always expired by the time a worker takes the request.
        ticks = itertools.count(0, 100)
        with service_on(
            tier, memory(), clock=lambda: next(ticks), default_deadline=10.0
        ) as service:
            (response,) = serve(service)
        assert isinstance(response.error, DeadlineExceeded)
        assert "admission queue" in str(response.error)

    def test_name(self, tier):
        with service_on(tier, memory(), name="knobby") as service:
            assert repr(service).startswith("QueryService(knobby:")

    def test_executor(self, tier):
        pytest.importorskip("numpy")  # the columnar backend needs it
        with service_on(tier, memory(), executor="columnar") as service:
            (response,) = serve(service)
        assert sorted(response.table.rows) == oracle()
        with service_on(tier, memory(), executor="no-such") as service:
            (response,) = serve(service)
        assert "unknown executor" in str(response.error)

    def test_worker_pool(self, tier):
        with service_on(tier, memory()) as service:
            serve(service)
            tier_health = service.health().worker_tier
        if tier == "in-process":
            assert tier_health is None
        else:
            assert tier_health["tier"] == tier
            assert tier_health["tasks"] == 1

    def test_plan_cache(self, tier):
        with service_on(tier, memory(), plan_cache=PlanCache()) as service:
            for _ in range(2):
                response = service.submit_query(QUERY).result(timeout=120)
                assert response.complete
            health = service.health()
        assert health.planned == 1
        assert health.plan_cache["hits"] == 1

    def test_calibration(self, tier):
        store = CalibrationStore()
        with service_on(tier, memory(), calibration=store) as service:
            serve(service)
        assert store.counters()["observations"] > 0

    def test_size_bounds(self, tier):
        bounds = SizeBounds(schema(), {"R": 12, "S": 12})
        budget = ResourceBudget(max_result_rows=1, on_result_overflow="error")
        with service_on(tier, memory(), size_bounds=bounds) as service:
            with pytest.raises(PlanInadmissible):
                service.submit(PLAN, budget=budget)
            assert service.health().rejected_inadmissible == 1

    def test_method_health(self, tier):
        registry = MethodHealthRegistry()
        source = faulty(outages={"mt_R": 0})
        with service_on(tier, source, method_health=registry) as service:
            (response,) = serve(service)
        assert isinstance(response.error, MethodOutage)
        assert registry.is_dead("mt_R")

    def test_allow_degraded(self, tier):
        for allow in (False, True):
            registry = MethodHealthRegistry()
            registry.mark_dead("mt_R")
            with service_on(
                tier, memory(), method_health=registry, allow_degraded=allow
            ) as service:
                if not allow:
                    with pytest.raises(NoViablePlan):
                        service.submit_query(QUERY)
                    continue
                response = service.submit_query(QUERY).result(timeout=120)
            assert response.partial and response.degraded


def test_process_tier_names_every_refused_knob():
    with pytest.raises(UnsupportedOnTier) as excinfo:
        service_on(
            "process",
            memory(),
            cache=AccessCache(),
            breakers=BreakerRegistry(),
            sleep=lambda _s: None,
        )
    assert excinfo.value.knobs == ("cache", "breakers", "sleep")
