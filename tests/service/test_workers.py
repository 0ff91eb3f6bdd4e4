"""The worker-pool execution tier: specs, payloads, pools, recovery.

Everything that crosses the process boundary here is a plain JSON-able
dict -- these tests round-trip each piece through ``json.dumps`` to
prove it, because "it pickled today" is not a compatibility story.
"""

import json
import os
import time

import pytest

from repro.data.decorators import (
    BudgetedSource,
    CachingSource,
    FlakySource,
    LatencySource,
    StormyLatencySource,
)
from repro.data.instance import Instance
from repro.data.source import InMemorySource, ShardedInMemorySource
from repro.errors import (
    DeadlineExceeded,
    MethodOutage,
    PlanCancelled,
    RowBudgetExceeded,
    WorkerCrashed,
    WorkerStalled,
)
from repro.exec.budget import ResourceBudget
from repro.exec.resilience import RetryPolicy
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.logic.terms import Constant
from repro.plans.ir import plan_to_ir
from repro.schema.core import SchemaBuilder
from repro.service import workers
from repro.service.request import QueryRequest
from repro.service.runtime import Runtime
from repro.service.service import QueryService
from repro.service.workers import (
    LatencyTracker,
    ProcessWorkerPool,
    SourceSpecError,
    ThreadWorkerPool,
    _decode_bindings,
    _decode_response,
    _encode_bindings,
    _encode_request,
    _encoded_plan_ir,
    _rebuild_error,
    _run_payload,
    source_to_spec,
    spec_to_source,
)


def simple_schema():
    return (
        SchemaBuilder("workers")
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_S", "S", inputs=[], cost=1.0)
        .build()
    )


def simple_instance(n=12):
    return Instance(
        {
            "R": [(f"a{i}", f"b{i % 3}") for i in range(n)],
            "S": [(f"b{i % 3}", f"c{i}") for i in range(n)],
        }
    )


def simple_plan(schema):
    from repro.planner.search import SearchOptions, find_best_plan
    from repro.logic.queries import parse_cq

    result = find_best_plan(
        schema,
        parse_cq("q(a, c) :- R(a, b) & S(b, c)"),
        SearchOptions(max_accesses=4),
    )
    assert result.found
    return result.best_plan


def canonical(table):
    return (table.attributes, tuple(sorted(map(repr, table.rows))))


def request_for(plan, **kwargs):
    """A request as the service admits it, stamped now."""
    return QueryRequest(
        plan=plan, request_id="r1", submitted_at=time.monotonic(), **kwargs
    )


def shipped(source, request, monkeypatch):
    """Run one request through the process-tier wire format in-process.

    The request is encoded as the parent would, round-tripped through
    JSON, and executed by the worker task over a runtime holding
    ``source``; returns the (JSON-able) result dict.
    """
    monkeypatch.setattr(workers, "_WORKER_RUNTIME", Runtime(source))
    payload = _encode_request(request, Runtime(source))
    return _run_payload(json.loads(json.dumps(payload)))


# ---------------------------------------------------------------- source spec
class TestSourceSpec:
    def test_memory_round_trip_is_jsonable(self):
        source = InMemorySource(simple_schema(), simple_instance())
        spec = json.loads(json.dumps(source_to_spec(source)))
        rebuilt = spec_to_source(spec)
        assert isinstance(rebuilt, InMemorySource)
        assert rebuilt.schema.name == source.schema.name
        assert rebuilt.instance.to_dict() == source.instance.to_dict()

    def test_sharded_round_trip(self):
        source = ShardedInMemorySource(
            simple_schema(), simple_instance(), shards=3
        )
        rebuilt = spec_to_source(
            json.loads(json.dumps(source_to_spec(source)))
        )
        assert isinstance(rebuilt, ShardedInMemorySource)
        assert rebuilt.shards == 3
        assert rebuilt.instance.to_dict() == source.instance.to_dict()

    def test_wrapper_stack_round_trip(self):
        inner = InMemorySource(simple_schema(), simple_instance())
        stack = FaultInjectingSource(
            CachingSource(LatencySource(inner, 0.001)),
            FaultPolicy.transient(0.2, seed=7),
        )
        spec = json.loads(json.dumps(source_to_spec(stack)))
        rebuilt = spec_to_source(spec)
        assert isinstance(rebuilt, FaultInjectingSource)
        assert rebuilt.policy.seed == 7
        assert isinstance(rebuilt.inner, CachingSource)
        assert isinstance(rebuilt.inner.inner, LatencySource)
        assert rebuilt.inner.inner.latency == pytest.approx(0.001)

    def test_storm_wrapper_round_trip(self):
        inner = InMemorySource(simple_schema(), simple_instance())
        storm = StormyLatencySource(
            inner, base_latency=0.001, slow_latency=0.25, slow_every=5
        )
        rebuilt = spec_to_source(
            json.loads(json.dumps(source_to_spec(storm)))
        )
        assert isinstance(rebuilt, StormyLatencySource)
        assert rebuilt.base_latency == pytest.approx(0.001)
        assert rebuilt.slow_latency == pytest.approx(0.25)
        assert rebuilt.slow_every == 5
        # Each rehydrated copy storms on its own schedule (fresh call
        # counter) -- latency-only nondeterminism, answers unchanged.
        assert isinstance(rebuilt.inner, InMemorySource)

    def test_call_order_dependent_wrappers_rejected(self):
        inner = InMemorySource(simple_schema(), simple_instance())
        with pytest.raises(SourceSpecError):
            source_to_spec(FlakySource(inner, fail_on=(0,)))
        with pytest.raises(SourceSpecError):
            source_to_spec(BudgetedSource(inner, max_invocations=5))

    def test_unknown_spec_rejected(self):
        with pytest.raises(SourceSpecError):
            spec_to_source({"format": "something-else", "version": 1})


# ------------------------------------------------------------------- payload
class TestPayload:
    def test_bindings_round_trip_through_json(self):
        bindings = {Constant("x"): Constant(3), Constant("y"): Constant("z")}
        encoded = json.loads(json.dumps(_encode_bindings(bindings)))
        assert _decode_bindings(encoded) == bindings
        assert _encode_bindings(None) is None
        assert _decode_bindings(None) is None

    def test_retry_round_trip(self):
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, seed=9)
        data = json.loads(json.dumps(retry.as_dict()))
        assert data["max_attempts"] == 3
        assert RetryPolicy.from_dict(data) == retry

    def test_execute_payload_matches_direct_execution(self, monkeypatch):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        reference = plan.execute(source)
        result = shipped(source, request_for(plan), monkeypatch)
        json.dumps(result)  # the response is shippable too
        response = _decode_response("r1", result)
        assert response.complete
        assert canonical(response.table) == canonical(reference)
        assert response.stats.commands

    def test_execute_payload_budget_truncation(self, monkeypatch):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        reference = sorted(plan.execute(source).rows)
        request = request_for(plan, budget=ResourceBudget(max_result_rows=3))
        response = _decode_response(
            "r1", shipped(source, request, monkeypatch)
        )
        assert response.partial
        assert response.truncated_rows == len(reference) - 3
        assert sorted(response.table.rows) == reference[:3]

    def test_execute_payload_reports_typed_error(self, monkeypatch):
        schema = simple_schema()
        source = FaultInjectingSource(
            InMemorySource(schema, simple_instance()),
            FaultPolicy(seed=0, outages={"mt_R": 0}),
        )
        result = shipped(source, request_for(simple_plan(schema)), monkeypatch)
        assert result["error_type"] == "MethodOutage"
        rebuilt = _rebuild_error(result)
        assert isinstance(rebuilt, MethodOutage)
        response = _decode_response("r1", result)
        assert not response.ok
        assert isinstance(response.error, MethodOutage)
        assert response.error.method == "mt_R"

    def test_worker_log_lives_for_one_request(self, monkeypatch):
        from repro.sources import SQLiteSource

        schema = simple_schema()
        source = SQLiteSource(schema, simple_instance())
        plan = simple_plan(schema)
        reference = canonical(plan.execute(source))
        monkeypatch.setattr(workers, "_WORKER_RUNTIME", None)
        workers._init_worker(json.loads(json.dumps(source_to_spec(source))))
        worker_source = workers._WORKER_RUNTIME.source
        assert isinstance(worker_source, SQLiteSource)
        payload = _encode_request(request_for(plan), Runtime(source))
        for _ in range(2):
            result = _run_payload(json.loads(json.dumps(payload)))
            assert worker_source.log == []
            response = _decode_response("r1", result)
            assert response.complete
            assert canonical(response.table) == reference
            # The parent still meters the request through ExecStats.
            assert response.stats.commands

    def test_rebuild_error_falls_back_for_unknown_types(self):
        from repro.errors import ExecutionError

        rebuilt = _rebuild_error(
            {"error_type": "NoSuchError", "error": "boom"}
        )
        assert isinstance(rebuilt, ExecutionError)
        # A name that exists but is not a ReproError must not be raised.
        rebuilt = _rebuild_error({"error_type": "__name__", "error": "x"})
        assert isinstance(rebuilt, ExecutionError)

    def test_rebuild_budget_error(self):
        rebuilt = _rebuild_error(
            {"error_type": "RowBudgetExceeded", "error": "over"}
        )
        assert isinstance(rebuilt, RowBudgetExceeded)

    def test_deadline_ships_as_the_seconds_left(self):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        request = request_for(simple_plan(schema), deadline_seconds=30.0)
        payload = _encode_request(request, Runtime(source))
        assert 0 < payload["deadline"] <= 30.0
        assert _encode_request(
            request_for(simple_plan(schema)), Runtime(source)
        )["deadline"] is None


# --------------------------------------------------------------- thread tier
class TestThreadWorkerPool:
    def test_run_request_and_health(self):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        reference = canonical(plan.execute(source))
        runtime = Runtime(source)
        with ThreadWorkerPool(workers=2) as pool:
            response = pool.run(request_for(plan), runtime, timeout=30)
            assert response.complete
            assert canonical(response.table) == reference
            health = pool.health()
            assert health["tier"] == "thread"
            assert health["alive"]
            assert health["tasks"] == 1
        assert not pool.alive()
        with pytest.raises(WorkerCrashed):
            pool.run(request_for(plan), runtime)


# -------------------------------------------------------------- process tier
class TestProcessWorkerPool:
    @pytest.mark.parametrize("start_method", ["spawn", "fork"])
    def test_identical_answers_across_start_methods(self, start_method):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        reference = canonical(plan.execute(source))
        pool = ProcessWorkerPool.for_source(
            source, workers=2, start_method=start_method
        )
        with pool:
            response = pool.run(request_for(plan), Runtime(source), timeout=120)
            assert response.complete, response.describe()
            assert canonical(response.table) == reference
            health = pool.health()
            assert health["tier"] == "process"
            assert health["start_method"] == start_method
            assert health["crashes"] == 0

    def test_killed_worker_raises_typed_error_and_pool_recovers(self):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        reference = canonical(plan.execute(source))
        pool = ProcessWorkerPool.for_source(
            source, workers=2, start_method="fork"
        )
        with pool:
            # Hard-kill a worker mid-task: the executor breaks.
            future = pool._executor.submit(os._exit, 13)
            with pytest.raises(Exception):
                future.result(timeout=60)
            # The next request surfaces a *typed* failure, not a hang
            # and not a bare concurrent.futures internal error.
            with pytest.raises(WorkerCrashed) as excinfo:
                pool.run(request_for(plan), Runtime(source), timeout=60)
            assert excinfo.value.restarts >= 1
            # ... and the pool has already been rebuilt: same request,
            # same bytes, no manual intervention.
            response = pool.run(request_for(plan), Runtime(source), timeout=120)
            assert response.complete, response.describe()
            assert canonical(response.table) == reference
            health = pool.health()
            assert health["alive"]
            assert health["crashes"] == 1
            assert health["restarts"] == 1

    def test_run_request_before_start_is_typed(self):
        source = InMemorySource(simple_schema(), simple_instance())
        pool = ProcessWorkerPool.for_source(source, workers=1)
        with pytest.raises(WorkerCrashed):
            pool.run(request_for(simple_plan(simple_schema())), Runtime(source))


# -------------------------------------------------- deadline across the tier
def keyed_lookup():
    """A scan of 20 keys feeding a keyed lookup: 21 distinct accesses."""
    from repro.plans.commands import AccessCommand, identity_output_map
    from repro.plans.expressions import Scan, Singleton
    from repro.plans.plan import Plan

    schema = (
        SchemaBuilder("lookup")
        .relation("K", 1)
        .relation("V", 2)
        .access("mt_keys", "K", inputs=[], cost=1.0)
        .access("mt_value", "V", inputs=[0], cost=1.0)
        .build()
    )
    instance = Instance(
        {
            "K": [(f"k{i}",) for i in range(20)],
            "V": [(f"k{i}", f"v{i}") for i in range(20)],
        }
    )
    keys = AccessCommand(
        "T1", "mt_keys", Singleton(), (), identity_output_map(("k",))
    )
    scan = Plan((keys,), "T1")
    lookup = Plan(
        (
            keys,
            AccessCommand(
                "T2", "mt_value", Scan("T1"), ("k",),
                identity_output_map(("k", "v")),
            ),
        ),
        "T2",
    )
    return schema, instance, scan, lookup


class TestDeadlineCrossesTheBoundary:
    """The worker's dispatcher gives up at the request's deadline."""

    def test_next_request_does_not_wait_out_the_last_ones_retries(self):
        schema, instance, scan, lookup = keyed_lookup()
        # Every access fails twice, then answers, and each attempt takes
        # 30 ms: the lookup plan needs about 2 s of retries.  Backoff is
        # 0.5 s per retry, longer than the whole 0.3 s deadline, so a
        # worker that knows the deadline stops at the first backoff.
        source = LatencySource(
            FaultInjectingSource(
                InMemorySource(schema, instance),
                FaultPolicy(seed=0, unavailable_rate=1.0, burst=2),
            ),
            0.03,
        )
        pool = ProcessWorkerPool.for_source(
            source, workers=1, start_method="fork"
        )
        retry = RetryPolicy(max_attempts=3, base_delay=0.5, jitter=0.0)
        service = QueryService(source, workers=1, worker_pool=pool, retry=retry)
        with service:
            # Warm-up: boots the worker and spends mt_keys' two faults.
            assert service.serve(scan, timeout=120).complete
            late = service.serve(lookup, deadline=0.3, timeout=120)
            assert isinstance(late.error, DeadlineExceeded)
            started = time.monotonic()
            after = service.serve(scan, timeout=120)
            waited = time.monotonic() - started
        assert after.complete
        assert waited < 0.8, f"next request waited {waited:.2f}s"


# ------------------------------------------------------------ latency tracker
class TestLatencyTracker:
    def test_cold_tracker_answers_initial_delay(self):
        tracker = LatencyTracker(initial_delay=0.07, warmup=3)
        assert tracker.hedge_delay() == pytest.approx(0.07)
        tracker.observe(0.5)
        tracker.observe(0.5)
        # Still inside warmup: two of three samples seen.
        assert tracker.hedge_delay() == pytest.approx(0.07)

    def test_p95_tracks_the_tail_not_the_mean(self):
        tracker = LatencyTracker(warmup=1)
        for _ in range(200):
            tracker.observe(0.01)
        for _ in range(20):
            tracker.observe(1.0)
        snapshot = tracker.as_dict()
        # The spikes pull the quantile estimate well above the fast
        # mass even though they are a minority of samples.
        assert snapshot["p95"] > snapshot["mean"] * 0.5
        assert tracker.hedge_delay() >= snapshot["p95"] * 0.9 or (
            tracker.hedge_delay() == tracker.max_delay
        )

    def test_hedge_delay_is_clamped(self):
        tracker = LatencyTracker(warmup=1, min_delay=0.05, max_delay=0.2)
        tracker.observe(0.0001)
        assert tracker.hedge_delay() == pytest.approx(0.05)
        for _ in range(50):
            tracker.observe(30.0)
        assert tracker.hedge_delay() == pytest.approx(0.2)

    def test_negative_samples_are_ignored(self):
        tracker = LatencyTracker()
        tracker.observe(-1.0)
        assert tracker.samples == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LatencyTracker(alpha=0.0)
        with pytest.raises(ValueError):
            LatencyTracker(quantile=1.0)


# ------------------------------------------------------------------ watchdog
class TestWatchdog:
    def test_thread_pool_stall_surfaces_typed_worker_stalled(self):
        schema = simple_schema()
        source = StormyLatencySource(
            InMemorySource(schema, simple_instance()),
            base_latency=0.0,
            slow_latency=0.4,
            slow_every=1,  # every access stalls
        )
        plan = simple_plan(schema)
        with ThreadWorkerPool(workers=2, watchdog_seconds=0.1) as pool:
            with pytest.raises(WorkerStalled) as excinfo:
                pool.run(request_for(plan), Runtime(source), timeout=30)
            # Threads cannot be killed: the slot leaks, and says so.
            assert not excinfo.value.killed
            health = pool.health()
            assert health["stalls"] == 1
            assert health["watchdog_seconds"] == pytest.approx(0.1)

    def test_process_pool_watchdog_kills_and_pool_recovers(self):
        schema = simple_schema()
        source = StormyLatencySource(
            InMemorySource(schema, simple_instance()),
            base_latency=0.0,
            slow_latency=30.0,
            slow_every=3,  # each worker's third access hangs
        )
        plan = simple_plan(schema)
        reference = canonical(plan.execute(source))
        pool = ProcessWorkerPool.for_source(
            source, workers=1, start_method="fork", watchdog_seconds=0.5
        )
        with pool:
            # Request 1: accesses 1-2 on the single worker, both fast.
            result = pool.run(request_for(plan), Runtime(source), timeout=60)
            assert result.complete
            # Request 2: access 3 sleeps 30s; the watchdog reclaims the
            # slot in 0.5s with a typed, killed=True stall.
            with pytest.raises(WorkerStalled) as excinfo:
                pool.run(request_for(plan), Runtime(source), timeout=60)
            assert excinfo.value.killed
            # Request 3: the recreated worker starts a fresh storm
            # counter, so the same request now succeeds -- same bytes.
            result = pool.run(request_for(plan), Runtime(source), timeout=60)
            assert result.complete
            assert canonical(result.table) == reference
            health = pool.health()
            assert health["alive"]
            assert health["stalls"] == 1
            assert health["watchdog_kills"] == 1
            assert health["restarts"] == 1

    def test_watchdog_seconds_must_be_positive(self):
        source = InMemorySource(simple_schema(), simple_instance())
        with pytest.raises(ValueError):
            ThreadWorkerPool(watchdog_seconds=0.0)
        with pytest.raises(ValueError):
            ProcessWorkerPool.for_source(source, hedge_delay=-1.0)


# ------------------------------------------------------------------- hedging
class TestHedging:
    def test_hedge_duplicate_wins_against_a_slow_primary(self):
        schema = simple_schema()
        source = StormyLatencySource(
            InMemorySource(schema, simple_instance()),
            base_latency=0.0,
            slow_latency=0.5,
            slow_every=3,
        )
        plan = simple_plan(schema)
        reference = canonical(plan.execute(InMemorySource(schema, simple_instance())))
        with ThreadWorkerPool(
            workers=2, hedge=True, hedge_delay=0.05
        ) as pool:
            assert pool.hedge_delay() == pytest.approx(0.05)
            # Request 1: accesses 1-2 both fast -- answered before the
            # hedge delay, so no duplicate is issued.
            result = pool.run(request_for(plan), Runtime(source), timeout=30)
            assert result.complete
            assert pool.health()["hedges"] == 0
            # Request 2: access 3 sleeps 0.5s; the duplicate issued at
            # 0.05s runs accesses 4-5 (fast) and wins.
            result = pool.run(request_for(plan), Runtime(source), timeout=30)
            assert result.complete
            assert canonical(result.table) == reference
            health = pool.health()
            assert health["hedges"] == 1
            assert health["hedge_wins"] == 1
            assert health["hedge_waste"] == 0

    def test_outrun_hedge_is_counted_as_waste(self):
        schema = simple_schema()
        source = StormyLatencySource(
            InMemorySource(schema, simple_instance()),
            base_latency=0.0,
            slow_latency=0.3,
            slow_every=1,  # duplicates are just as slow as primaries
        )
        plan = simple_plan(schema)
        with ThreadWorkerPool(
            workers=2, hedge=True, hedge_delay=0.05
        ) as pool:
            result = pool.run(request_for(plan), Runtime(source), timeout=30)
            assert result.complete
            health = pool.health()
            # The primary had a head start over the equally slow
            # duplicate, so it finished first: the hedge was waste.
            assert health["hedges"] == 1
            assert health["hedge_wins"] == 0
            assert health["hedge_waste"] == 1

    def test_hedging_disabled_issues_no_duplicates(self):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        with ThreadWorkerPool(workers=2) as pool:
            pool.run(request_for(plan), Runtime(source), timeout=30)
            health = pool.health()
            assert health["hedge"] is False
            assert health["hedges"] == 0
            # The adaptive delay is still tracked for health visibility.
            assert health["latency"]["samples"] == 1


# -------------------------------------------------------- hedge cancellation
class TestHedgeCancellation:
    """Satellite: a losing duplicate is flagged down, not left running."""

    def test_running_loser_gets_its_token_set_and_is_counted(self):
        schema = simple_schema()
        source = StormyLatencySource(
            InMemorySource(schema, simple_instance()),
            base_latency=0.0,
            slow_latency=0.5,
            slow_every=3,
        )
        plan = simple_plan(schema)
        with ThreadWorkerPool(
            workers=2, hedge=True, hedge_delay=0.05
        ) as pool:
            # Request 1 is fast (accesses 1-2): no hedge, nothing to
            # cancel.  Request 2's primary sleeps 0.5s on access 3;
            # the duplicate wins, and the still-running primary gets
            # its cancellation token set instead of a silent leak.
            pool.run(request_for(plan), Runtime(source), timeout=30)
            result = pool.run(request_for(plan), Runtime(source), timeout=30)
            assert result.complete
            health = pool.health()
            assert health["hedge_wins"] == 1
            assert health["hedge_cancelled"] == 1
            # The flagged loser frees its slot: both workers answer a
            # follow-up promptly instead of one being wedged.
            result = pool.run(request_for(plan), Runtime(source), timeout=30)
            assert result.complete

    def test_cancel_token_stops_plan_execution_between_commands(self):
        import threading

        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        token = threading.Event()
        token.set()
        with pytest.raises(PlanCancelled):
            plan.execute(source, cancel=token)


# ------------------------------------------------------- encoded-plan memo
class TestEncodedPlanMemo:
    """Satellite: hot plans are IR-encoded once, not once per dispatch."""

    def test_encoding_is_memoized_and_faithful(self):
        schema = simple_schema()
        plan = simple_plan(schema)
        first = _encoded_plan_ir(plan)
        assert _encoded_plan_ir(plan) is first
        assert first == plan_to_ir(plan)
        # Memoized payloads still cross the boundary as plain JSON.
        assert json.loads(json.dumps(first)) == first


# -------------------------------------------- partial markings across the tier
class TestPartialMarkingsAcrossTier:
    """Satellite: ``partial``/``truncated_rows`` survive the tier path.

    The markings are computed worker-side (the budget lives in the
    payload), cross back as plain JSON, and must land on the
    :class:`QueryResponse` exactly as the in-process path would set
    them -- on both tiers and both process start methods, and even when
    a worker crash lands mid-burst.
    """

    def _expected(self, schema):
        plan = simple_plan(schema)
        source = InMemorySource(schema, simple_instance())
        return plan, sorted(plan.execute(source).rows)

    def _assert_marked(self, response, reference, keep):
        assert response.error is None
        assert response.partial is True
        assert response.complete is False
        assert response.truncated_rows == len(reference) - keep
        assert sorted(response.table.rows) == reference[:keep]

    def test_thread_tier_marks_truncation_end_to_end(self):
        schema = simple_schema()
        plan, reference = self._expected(schema)
        source = InMemorySource(schema, simple_instance())
        pool = ThreadWorkerPool(workers=2)
        service = QueryService(source, workers=2, worker_pool=pool)
        with service:
            response = service.serve(
                plan, budget=ResourceBudget(max_result_rows=3), timeout=30
            )
            self._assert_marked(response, reference, 3)

    @pytest.mark.parametrize("start_method", ["spawn", "fork"])
    def test_process_tier_marks_truncation_end_to_end(self, start_method):
        schema = simple_schema()
        plan, reference = self._expected(schema)
        source = InMemorySource(schema, simple_instance())
        pool = ProcessWorkerPool.for_source(
            source, workers=2, start_method=start_method
        )
        service = QueryService(source, workers=2, worker_pool=pool)
        with service:
            response = service.serve(
                plan, budget=ResourceBudget(max_result_rows=3), timeout=120
            )
            self._assert_marked(response, reference, 3)
            # An unbudgeted request through the same tier is complete
            # and unmarked -- truncation state never leaks across
            # requests.
            clean = service.serve(plan, timeout=120)
            assert clean.complete is True
            assert clean.partial is False
            assert clean.truncated_rows == 0

    def test_markings_survive_a_mid_burst_worker_crash(self):
        schema = simple_schema()
        plan, reference = self._expected(schema)
        source = InMemorySource(schema, simple_instance())
        pool = ProcessWorkerPool.for_source(
            source, workers=2, start_method="fork"
        )
        service = QueryService(source, workers=2, worker_pool=pool)
        with service:
            before = service.serve(
                plan, budget=ResourceBudget(max_result_rows=3), timeout=120
            )
            self._assert_marked(before, reference, 3)
            # Hard-kill a worker, then keep serving budget requests:
            # the crash surfaces typed on at most the requests it hit,
            # and every surviving answer still carries its markings.
            pool._executor.submit(os._exit, 13)
            tickets = [
                service.submit(
                    plan,
                    budget=ResourceBudget(max_result_rows=3),
                    deadline=120,
                )
                for _ in range(4)
            ]
            crashed = 0
            for ticket in tickets:
                response = ticket.result(timeout=130)
                if response.error is not None:
                    assert isinstance(response.error, WorkerCrashed)
                    crashed += 1
                else:
                    self._assert_marked(response, reference, 3)
            # Give the executor a beat to notice the corpse, then prove
            # the recovered pool serves marked answers again.
            time.sleep(0.3)
            after = service.serve(
                plan, budget=ResourceBudget(max_result_rows=3), timeout=120
            )
            if after.error is not None:
                # The crash surfaced here instead: typed, and the pool
                # was recreated by the same call -- retry once.
                assert isinstance(after.error, WorkerCrashed)
                after = service.serve(
                    plan, budget=ResourceBudget(max_result_rows=3), timeout=120
                )
            self._assert_marked(after, reference, 3)
            assert pool.health()["crashes"] >= 1
            assert pool.health()["restarts"] >= 1
