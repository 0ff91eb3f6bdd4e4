"""The eight-scenario chaos matrix, each seeded and deterministic.

Every scenario builds its own workload (schema + instance + query,
sized so a clean run answers in milliseconds), computes the clean
oracle first, then serves the same workload through a live
:class:`~repro.service.QueryService` while injecting one failure mode:

``worker_kill``
    a worker process is assassinated mid-burst (``os._exit(13)``
    submitted straight into the pool); affected requests fail typed
    :class:`~repro.errors.WorkerCrashed`, the pool recreates, and a
    follow-up burst is served clean.
``worker_stall``
    a :class:`~repro.data.decorators.StormyLatencySource` whose slow
    tick (30s) dwarfs the watchdog bound (0.5s): stuck workers are
    killed and recycled, surfacing typed
    :class:`~repro.errors.WorkerStalled` instead of blocked slots.
``latency_storm``
    a storm whose slow tick is merely painful (hundreds of ms);
    hedged execution duplicates the straggling tail after a fixed
    delay and every answer still matches the oracle exactly.
``burst_outage``
    a seeded :class:`~repro.faults.FaultPolicy` transient schedule
    (bursty unavailability/timeouts/rate limits) defeated by retries:
    byte-identical answers, zero failures surfaced to clients.
``permanent_outage``
    one access method hard-down from invocation zero; the first
    failure marks it dead, planning re-runs *once* over the surviving
    schema, every later request is served complete (flagged
    ``degraded``), and recovery swings back to the healthy plan.
``http_rate_limit_storm``
    a concurrent burst against a token-bucket-policed web-service stub
    (:class:`~repro.sources.StubTransport`): the server answers 429 +
    ``Retry-After``, the :class:`~repro.sources.HTTPSource` client
    waits it out and follows pagination, and every answer still
    matches the oracle.
``sqlite_disconnect``
    the :class:`~repro.sources.SQLiteSource` connection is severed
    before every third statement (mid-plan, between a request's own
    accesses); reconnect-with-backoff reloads the same read snapshot
    (epoch unchanged), so answers are byte-identical and only the
    ``reconnects`` counter knows.
``disk_corruption``
    the plan-cache entry and the calibration store are corrupted on
    disk between service generations (plus a torn temp file from a
    simulated crash mid atomic write); the restarted service
    quarantines both, re-plans once, and serves the oracle answers.

Each scenario returns a :class:`~repro.chaos.harness.ChaosReport`;
``quick=True`` shrinks request counts for CI smoke runs without
changing any failure mode.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Dict, Tuple

from repro.chaos.harness import ChaosReport, ScenarioHarness
from repro.cost.calibration import CalibrationStore
from repro.data.decorators import StormyLatencySource
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec.resilience import RetryPolicy
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.logic.queries import parse_cq
from repro.planner.plan_cache import PlanCache
from repro.planner.search import SearchOptions, find_best_plan
from repro.schema.core import SchemaBuilder
from repro.service.service import QueryService
from repro.service.workers import ProcessWorkerPool, ThreadWorkerPool
from repro.sources import HTTPSource, SQLiteSource, StubTransport

#: No real backoff sleeping inside chaos runs -- schedules stay
#: deterministic and scenarios stay fast.
_NO_SLEEP = lambda _seconds: None  # noqa: E731


def join_workload(name: str, *, bound_s: bool = False):
    """The shared R |x| S workload: schema, instance, query, plan, oracle.

    24 rows per relation joined on a 4-value key: big enough that a
    plan run does real work, small enough that a clean run is
    milliseconds.  ``bound_s=True`` swaps the free S scan for an
    input-bound method, which multiplies the distinct access keys a
    fault schedule can land on (the burst scenario wants that).
    """
    builder = (
        SchemaBuilder(name)
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
    )
    if bound_s:
        builder = builder.access("mt_S", "S", inputs=[0], cost=2.0)
    else:
        builder = builder.access("mt_S", "S", inputs=[], cost=1.0)
    schema = builder.build()
    instance = Instance(
        {
            "R": [(f"a{i}", f"b{i % 4}") for i in range(24)],
            "S": [(f"b{i % 4}", f"c{i}") for i in range(24)],
        }
    )
    query = parse_cq("q(a, c) :- R(a, b) & S(b, c)")
    result = find_best_plan(schema, query, SearchOptions(max_accesses=4))
    assert result.found, "the chaos workload must always be plannable"
    plan = result.best_plan
    oracle = frozenset(
        plan.execute(InMemorySource(schema, instance)).rows
    )
    return schema, instance, query, plan, oracle


def outage_workload(name: str):
    """A workload with a *redundant* access path for one relation.

    ``primary_R`` is the cheap method every healthy plan picks;
    ``backup_R`` is the expensive one the degraded re-plan falls back
    to when the primary is hard-down.  Same instance and oracle as
    :func:`join_workload` -- both methods reveal the same relation.
    """
    schema = (
        SchemaBuilder(name)
        .relation("R", 2)
        .relation("S", 2)
        .access("primary_R", "R", inputs=[], cost=1.0)
        .access("backup_R", "R", inputs=[], cost=5.0)
        .access("mt_S", "S", inputs=[], cost=1.0)
        .build()
    )
    instance = Instance(
        {
            "R": [(f"a{i}", f"b{i % 4}") for i in range(24)],
            "S": [(f"b{i % 4}", f"c{i}") for i in range(24)],
        }
    )
    query = parse_cq("q(a, c) :- R(a, b) & S(b, c)")
    oracle = frozenset(instance.evaluate(query))
    return schema, instance, query, oracle


# ----------------------------------------------------------------- scenarios
def worker_kill(seed: int = 0, quick: bool = True) -> ChaosReport:
    """Assassinate a worker process mid-burst; the tier must recover."""
    schema, instance, _query, plan, oracle = join_workload("chaos_kill")
    source = InMemorySource(schema, instance)
    pool = ProcessWorkerPool.for_source(
        source, workers=2, start_method="fork"
    )
    batch = 2 if quick else 4
    harness = ScenarioHarness("worker_kill", seed, 120.0, oracle)
    service = QueryService(
        source,
        workers=2,
        max_queue=64,
        worker_pool=pool,
        default_deadline=60.0,
    )
    with service:
        for _ in range(batch):  # clean warm-up burst
            harness.submit(service.submit, plan)
        harness.collect()
        # The assassination: a task that hard-exits whichever worker
        # picks it up, exactly like an OOM kill or a segfault.
        pool._executor.submit(os._exit, 13)
        time.sleep(0.3)  # let the executor notice the corpse
        for _ in range(batch):  # burst into the broken pool
            harness.submit(service.submit, plan)
        harness.collect()
        for _ in range(batch):  # the recreated pool serves clean again
            harness.submit(service.submit, plan)
        harness.collect()
    return harness.finish(service, details={"tier": pool.health()})


def worker_stall(seed: int = 0, quick: bool = True) -> ChaosReport:
    """A 30s stall against a 0.5s watchdog: kill, recycle, keep serving."""
    schema, instance, _query, plan, oracle = join_workload("chaos_stall")
    source = StormyLatencySource(
        InMemorySource(schema, instance),
        base_latency=0.0,
        slow_latency=30.0,
        slow_every=3,
    )
    pool = ProcessWorkerPool.for_source(
        source, workers=2, start_method="fork", watchdog_seconds=0.5
    )
    requests = 4 if quick else 6
    harness = ScenarioHarness("worker_stall", seed, 120.0, oracle)
    service = QueryService(
        source,
        workers=2,
        max_queue=64,
        worker_pool=pool,
        default_deadline=60.0,
    )
    with service:
        # Each request makes 2 accesses and each rehydrated worker
        # storms on its 3rd call, so the second request a worker takes
        # stalls -- far past the watchdog, nowhere near the deadline.
        for _ in range(requests):
            harness.submit(service.submit, plan)
            harness.collect()
    return harness.finish(service, details={"tier": pool.health()})


def latency_storm(seed: int = 0, quick: bool = True) -> ChaosReport:
    """Hedged execution rides out a deterministic tail-latency storm."""
    schema, instance, _query, plan, oracle = join_workload("chaos_storm")
    source = StormyLatencySource(
        InMemorySource(schema, instance),
        base_latency=0.002,
        slow_latency=0.25,
        slow_every=5,
    )
    pool = ThreadWorkerPool(workers=4, hedge=True, hedge_delay=0.05)
    requests = 12 if quick else 24
    harness = ScenarioHarness("latency_storm", seed, 60.0, oracle)
    service = QueryService(
        source,
        workers=4,
        max_queue=64,
        worker_pool=pool,
        default_deadline=30.0,
        sleep=_NO_SLEEP,
    )
    with service:
        for _ in range(requests):
            harness.submit(service.submit, plan)
        harness.collect()
    return harness.finish(service, details={"tier": pool.health()})


def burst_outage(seed: int = 0, quick: bool = True) -> ChaosReport:
    """Bursty transient faults, defeated by retries: zero client impact."""
    schema, instance, _query, plan, oracle = join_workload(
        "chaos_burst", bound_s=True
    )
    policy = FaultPolicy(
        seed=seed,
        unavailable_rate=0.3,
        timeout_rate=0.2,
        rate_limit_rate=0.1,
        burst=2,
    )
    source = FaultInjectingSource(InMemorySource(schema, instance), policy)
    requests = 8 if quick else 16
    harness = ScenarioHarness("burst_outage", seed, 60.0, oracle)
    service = QueryService(
        source,
        workers=4,
        max_queue=64,
        retry=RetryPolicy(
            max_attempts=4, base_delay=0.001, max_delay=0.002, seed=seed
        ),
        default_deadline=30.0,
        sleep=_NO_SLEEP,
    )
    with service:
        for _ in range(requests):
            harness.submit(service.submit, plan)
        harness.collect()
    return harness.finish(
        service, details={"faults": source.stats.as_dict()}
    )


def permanent_outage(seed: int = 0, quick: bool = True) -> ChaosReport:
    """One hard-down method: one typed failure, one re-plan, recovery."""
    schema, instance, query, oracle = outage_workload("chaos_outage")
    policy = FaultPolicy.outage("primary_R", after=0, seed=seed)
    source = FaultInjectingSource(InMemorySource(schema, instance), policy)
    requests = 4 if quick else 8
    harness = ScenarioHarness("permanent_outage", seed, 60.0, oracle)
    service = QueryService(
        source,
        workers=2,
        max_queue=64,
        plan_cache=PlanCache(capacity=8),
        default_deadline=30.0,
        sleep=_NO_SLEEP,
    )
    with service:
        # First request rides the healthy plan into the outage: one
        # typed failure, and the method-health registry learns.
        harness.submit(service.submit_query, query)
        harness.collect()
        # Tickets resolve *before* the outage is folded into the
        # registry; wait for the books to settle so the next plan
        # definitely sees the dead set.
        service.wait_idle(timeout=10.0)
        # Every later request re-plans over the surviving schema --
        # exactly one search (the degraded cache key misses once).
        for _ in range(requests):
            harness.submit(service.submit_query, query)
        harness.collect()
        mid_health = service.health().as_dict()
        # Recovery: the backend outage ends (a clean schedule replaces
        # the dead one) and an operator/probe declares the method back.
        source.policy = FaultPolicy(seed=seed)
        service.mark_method_recovered("primary_R")
        for _ in range(2):
            harness.submit(service.submit_query, query)
        harness.collect()
    return harness.finish(
        service,
        details={
            "during_outage": mid_health["method_health"],
            "degraded_responses": sum(
                1 for r in harness.responses if r.degraded
            ),
        },
    )


def http_rate_limit_storm(seed: int = 0, quick: bool = True) -> ChaosReport:
    """A burst of concurrent requests slams a rate-limited web service.

    The stub transport polices a tiny token bucket, so the storm is
    *guaranteed* to trip it (``over_budget`` counts the 429s); the
    :class:`~repro.sources.HTTPSource` client honours every
    ``Retry-After`` (millisecond-scale waits) and follows pagination,
    so despite the policing every answer matches the oracle exactly
    and nothing surfaces to clients -- rate limiting degrades latency,
    never soundness.
    """
    schema, instance, _query, plan, oracle = join_workload("chaos_http")
    transport = StubTransport(
        schema, instance, page_size=5, rate_limit=500.0, burst=2.0
    )
    source = HTTPSource(transport, max_retry_after_waits=64)
    requests = 8 if quick else 16
    harness = ScenarioHarness("http_rate_limit_storm", seed, 60.0, oracle)
    service = QueryService(
        source,
        workers=4,
        max_queue=64,
        retry=RetryPolicy(
            max_attempts=4, base_delay=0.001, max_delay=0.002, seed=seed
        ),
        default_deadline=30.0,
        sleep=_NO_SLEEP,
    )
    with service:
        for _ in range(requests):
            harness.submit(service.submit, plan)
        harness.collect()
    return harness.finish(
        service,
        details={
            "transport": transport.counters(),
            "retry_after_waits": source.retry_after_waits,
            "snapshot_restarts": source.snapshot_restarts,
        },
    )


def sqlite_disconnect(seed: int = 0, quick: bool = True) -> ChaosReport:
    """The SQLite backend loses its connection mid-plan, repeatedly.

    ``drop_every=3`` severs the connection before every third
    statement, so nearly every plan run hits at least one dead
    connection *between its own accesses*.  Reconnect-with-backoff
    reloads the retained snapshot (same epoch -- a reconnect is not a
    mutation), so every answer is byte-identical to the oracle and the
    only trace is the ``reconnects`` counter.
    """
    schema, instance, _query, plan, oracle = join_workload(
        "chaos_sqlite", bound_s=True
    )
    source = SQLiteSource(
        schema, instance, drop_every=3, sleep=_NO_SLEEP
    )
    requests = 8 if quick else 16
    harness = ScenarioHarness("sqlite_disconnect", seed, 60.0, oracle)
    service = QueryService(
        source,
        workers=4,
        max_queue=64,
        retry=RetryPolicy(
            max_attempts=4, base_delay=0.001, max_delay=0.002, seed=seed
        ),
        default_deadline=30.0,
        sleep=_NO_SLEEP,
    )
    with service:
        for _ in range(requests):
            harness.submit(service.submit, plan)
        harness.collect()
    report = harness.finish(
        service,
        details={
            "reconnects": source.reconnects,
            "statements": source._statements,
            "batched_calls": source.batched_calls,
        },
    )
    assert source.reconnects > 0, (
        "the disconnect scenario must actually sever connections"
    )
    return report


def disk_corruption(seed: int = 0, quick: bool = True) -> ChaosReport:
    """Rot the plan cache + calibration store between service generations.

    Also plants a torn temp file (a crash mid atomic write leaves
    ``<key>.json.tmp.<pid>`` behind, never a half-written entry --
    that is the point of the write-then-rename protocol) and truncates
    the calibration store as a torn rename would.  The next generation
    must quarantine both, re-plan once, and serve oracle answers.
    """
    schema, instance, query, _plan, oracle = join_workload("chaos_disk")
    workdir = tempfile.mkdtemp(prefix="repro-chaos-disk-")
    cache_dir = os.path.join(workdir, "plans")
    calib_path = os.path.join(workdir, "calibration.json")
    requests = 2 if quick else 4
    harness = ScenarioHarness("disk_corruption", seed, 60.0, oracle)
    try:
        # Generation 1: warm both disk tiers through real serving.
        warm = QueryService(
            InMemorySource(schema, instance),
            workers=2,
            plan_cache=PlanCache(capacity=8, directory=cache_dir),
            calibration=CalibrationStore(path=calib_path),
            default_deadline=30.0,
            sleep=_NO_SLEEP,
        )
        with warm:
            for _ in range(requests):
                harness.submit(warm.submit_query, query)
            harness.collect()
        harness.carry_over(warm)
        warm_health = warm.health().as_dict()
        # The corruption: flip a byte mid-entry, truncate the
        # calibration store mid-file, leave a torn temp file behind.
        for name in os.listdir(cache_dir):
            if not name.endswith(".json"):
                continue
            path = os.path.join(cache_dir, name)
            with open(path, "rb") as handle:
                data = handle.read()
            mid = len(data) // 2
            flip = b"Y" if data[mid : mid + 1] == b"X" else b"X"
            with open(path, "wb") as handle:
                handle.write(data[:mid] + flip + data[mid + 1 :])
            with open(f"{path}.tmp.9999", "w", encoding="utf-8") as torn:
                torn.write('{"format": "repro.plan-cache", "ver')
        with open(calib_path, "rb") as handle:
            calib_bytes = handle.read()
        with open(calib_path, "wb") as handle:
            handle.write(calib_bytes[: len(calib_bytes) // 2])
        # Generation 2: fresh tiers over the rotten files.
        plan_cache = PlanCache(capacity=8, directory=cache_dir)
        calibration = CalibrationStore(path=calib_path)
        service = QueryService(
            InMemorySource(schema, instance),
            workers=2,
            plan_cache=plan_cache,
            calibration=calibration,
            default_deadline=30.0,
            sleep=_NO_SLEEP,
        )
        with service:
            for _ in range(requests):
                harness.submit(service.submit_query, query)
            harness.collect()
        return harness.finish(
            service,
            details={
                "generation1": {
                    "served": warm_health["served"],
                    "planned": warm_health["planned"],
                },
                "plan_cache": plan_cache.counters(),
                "calibration": calibration.counters(),
            },
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: The scenario matrix: name -> builder(seed, quick) -> ChaosReport.
SCENARIO_BUILDERS: Dict[str, object] = {
    "worker_kill": worker_kill,
    "worker_stall": worker_stall,
    "latency_storm": latency_storm,
    "burst_outage": burst_outage,
    "permanent_outage": permanent_outage,
    "http_rate_limit_storm": http_rate_limit_storm,
    "sqlite_disconnect": sqlite_disconnect,
    "disk_corruption": disk_corruption,
}

SCENARIOS: Tuple[str, ...] = tuple(SCENARIO_BUILDERS)
