"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``demo <scenario>`` -- run a built-in scenario end to end (plan, show
  the plan, execute it on generated data, verify completeness).
  Scenarios: example1, example2, example5, chain, views.
* ``serve-demo <scenario> --workers N`` -- plan a scenario, then serve
  a burst of concurrent requests (mixed priorities, per-request
  deadlines and budgets) through a :class:`~repro.service.QueryService`
  and print the per-request outcomes and the service health snapshot.
* ``plan <schema.json> <query>`` -- plan a Datalog-style query over a
  schema file (the :mod:`repro.schema.serialize` JSON format), printing
  the best plan, its proof, and optionally SQL (``--sql``).
* ``check <schema.json> <query>`` -- decide answerability only.

Exit status: 0 on success / answerable, 2 when no plan exists.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.data.source import InMemorySource
from repro.errors import ReproError
from repro.exec import (
    AccessCache,
    BreakerRegistry,
    Deadline,
    ExecStats,
    FailoverExecutor,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.faults import FaultInjectingSource, FaultPolicy, VirtualClock
from repro.logic.queries import parse_cq
from repro.planner.answerability import default_policy_for
from repro.planner.domination import REGISTRY_KINDS
from repro.planner.search import SearchOptions, find_best_plan
from repro.plans.tools import to_sql
from repro.scenarios import (
    example1,
    example2,
    example5,
    referential_chain,
    view_stack_scenario,
)
from repro.chaos import SCENARIOS as CHAOS_SCENARIOS
from repro.schema.serialize import schema_from_dict

SCENARIOS = {
    "example1": example1,
    "example2": example2,
    "example5": example5,
    "chain": lambda: referential_chain(3),
    "views": view_stack_scenario,
}


def _make_source(schema, instance, kind: str):
    """Build the backend the CLI executes over.

    ``memory`` is the in-memory oracle; ``sqlite`` serves the same
    instance as SQLite tables; ``http`` serves it through the
    in-process web-service stub (pagination enabled so the client's
    page-chaining actually runs).  All three answer identically -- the
    flag changes *how* accesses are answered, never what they return.
    """
    if kind == "sqlite":
        from repro.sources import SQLiteSource

        return SQLiteSource(schema, instance)
    if kind == "http":
        from repro.sources import HTTPSource, StubTransport

        return HTTPSource(StubTransport(schema, instance, page_size=50))
    return InMemorySource(schema, instance)


def _adapter_summary(source) -> str:
    """A one-line counters digest for a non-memory backend, or ''."""
    reconnects = getattr(source, "reconnects", None)
    if reconnects is not None:
        return (
            f"sqlite [statements={source._statements} "
            f"reconnects={reconnects} batched={source.batched_calls}]"
        )
    transport = getattr(source, "transport", None)
    if transport is not None and hasattr(transport, "counters"):
        counters = transport.counters()
        return (
            f"http [requests={counters['requests']} "
            f"over_budget={counters['over_budget']} "
            f"retry_after_waits={source.retry_after_waits} "
            f"batched={source.batched_calls}]"
        )
    return ""


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="proof-driven query planning (PODS 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a built-in scenario")
    demo.add_argument("scenario", choices=sorted(SCENARIOS))
    demo.add_argument("--max-accesses", type=int, default=6)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--source",
        choices=["memory", "sqlite", "http"],
        default="memory",
        help="which backend serves the accesses: the in-memory oracle, "
             "relations as SQLite tables (parameterized lookups, "
             "reconnect-on-error), or an in-process HTTP web-service "
             "stub (pagination, rate limits, Retry-After); answers are "
             "identical by construction",
    )
    demo.add_argument(
        "--exec-stats",
        action="store_true",
        help="print the execution runtime breakdown (per-command timings, "
             "dispatch dedup, cache hits, peak resident rows)",
    )
    demo.add_argument(
        "--access-cache",
        action="store_true",
        help="execute through a shared LRU access cache (repeated "
             "identical accesses are answered without touching the "
             "source)",
    )
    demo.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject a deterministic mix of transient faults "
             "(unavailable / timeout / rate-limit) on fraction P of the "
             "distinct accesses",
    )
    demo.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault schedule (same seed = same failures)",
    )
    demo.add_argument(
        "--outage",
        action="append",
        default=[],
        metavar="METHOD",
        help="declare an access method permanently down (repeatable)",
    )
    demo.add_argument(
        "--retry",
        type=int,
        default=0,
        metavar="N",
        help="retry each faulted access up to N times with exponential "
             "backoff and deterministic jitter (0 = fail fast)",
    )
    demo.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="overall plan deadline in (simulated) seconds; expiry "
             "aborts execution with DeadlineExceeded",
    )
    demo.add_argument(
        "--executor",
        choices=["interpreter", "columnar", "differential"],
        default="interpreter",
        help="execution backend: the tuple-at-a-time interpreter "
             "(default), the vectorized columnar backend over the plan "
             "IR, or differential (run both, assert identical answers)",
    )
    demo.add_argument(
        "--calibrated",
        action="store_true",
        help="after executing, fold the run's observed row flow into a "
             "cost-calibration store, re-plan with the calibrated "
             "cardinality estimator under static size-bound "
             "branch-and-bound pruning, and report both plans",
    )
    demo.add_argument(
        "--failover",
        action="store_true",
        help="serve the query through the failover executor: when a "
             "method dies (breaker opens / hard outage), re-plan over "
             "the surviving methods and fall back to the next-cheapest "
             "plan, or to a marked partial answer",
    )

    serve = sub.add_parser(
        "serve-demo",
        help="serve a burst of concurrent requests through QueryService",
    )
    serve.add_argument("scenario", choices=sorted(SCENARIOS))
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--requests", type=int, default=24,
                       help="how many requests to fire at once")
    serve.add_argument("--max-queue", type=int, default=8,
                       help="admission queue capacity (small values shed)")
    serve.add_argument("--latency", type=float, default=0.002,
                       metavar="SECONDS",
                       help="simulated per-access source latency")
    serve.add_argument("--budget-rows", type=int, default=None,
                       metavar="N",
                       help="per-request result-row budget (overflowing "
                            "answers degrade to marked partial results)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request deadline, measured from submission")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--max-accesses", type=int, default=6)
    serve.add_argument(
        "--source",
        choices=["memory", "sqlite", "http"],
        default="memory",
        help="backend the service executes over (see 'demo --source'); "
             "sqlite and http rehydrate per worker under "
             "--worker-tier process",
    )
    serve.add_argument(
        "--executor",
        choices=["interpreter", "columnar", "differential"],
        default="interpreter",
        help="execution backend used by the worker pool",
    )
    serve.add_argument(
        "--worker-tier",
        choices=["none", "thread", "process"],
        default="none",
        help="execution tier: none (in-service threads), thread "
             "(a ThreadWorkerPool over the service's runtime), or "
             "process (ProcessPoolExecutor -- ships plan IR to spawned "
             "workers and scales CPU-bound serving past the GIL)",
    )
    serve.add_argument(
        "--tier-workers",
        type=int,
        default=4,
        metavar="N",
        help="worker count of the process/thread execution tier",
    )
    serve.add_argument(
        "--plan-cache",
        action="store_true",
        help="plan each request through a fingerprint-keyed PlanCache "
             "(repeated queries skip the proof search entirely)",
    )
    serve.add_argument(
        "--plan-cache-dir",
        default=None,
        metavar="DIR",
        help="persist cached plans as JSON files under DIR (implies "
             "--plan-cache); a restarted service re-reads them from disk",
    )
    serve.add_argument(
        "--calibration-file",
        default=None,
        metavar="PATH",
        help="maintain a persistent cost-calibration store at PATH: "
             "every served request's observed per-method row flow is "
             "folded in (atomic rewrite), and a restarted service "
             "resumes planning from the accumulated estimates",
    )
    serve.add_argument(
        "--watchdog-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request stall bound on the execution tier: a request "
             "stuck past it fails typed (WorkerStalled) and the process "
             "tier kills and recreates its pool to reclaim the slot",
    )
    serve.add_argument(
        "--hedge",
        action="store_true",
        help="hedged dispatch on the execution tier: duplicate a "
             "request to a second worker after an adaptive EWMA-P95 "
             "delay and take the first answer (cuts tail latency; "
             "safe because execution is deterministic)",
    )
    serve.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fixed hedge delay overriding the adaptive P95 estimate",
    )
    serve.add_argument(
        "--chaos-scenario",
        choices=list(CHAOS_SCENARIOS),
        default=None,
        metavar="NAME",
        help="instead of the normal burst, run one deterministic chaos "
             "scenario from repro.chaos against a live service and "
             "print its invariant report (scenarios: "
             + ", ".join(CHAOS_SCENARIOS) + ")",
    )

    plan = sub.add_parser("plan", help="plan a query over a schema file")
    plan.add_argument("schema", help="path to a schema JSON file")
    plan.add_argument("query", help="e.g. \"q(x) :- R(x, y)\"")
    plan.add_argument("--max-accesses", type=int, default=6)
    plan.add_argument("--sql", action="store_true",
                      help="also print an SQL rendering")

    check = sub.add_parser("check", help="decide answerability")
    check.add_argument("schema")
    check.add_argument("query")
    check.add_argument("--max-accesses", type=int, default=6)
    for command in (demo, serve, plan, check):
        command.add_argument(
            "--chase-strategy",
            choices=["semi-naive", "naive"],
            default="semi-naive",
            help="chase evaluation strategy for per-node saturation "
                 "(naive is the slow reference oracle)",
        )
        command.add_argument(
            "--chase-stats",
            action="store_true",
            help="print aggregated chase instrumentation after planning",
        )
        command.add_argument(
            "--search-stats",
            action="store_true",
            help="print the search hot-loop breakdown after planning "
                 "(domination checks, candidate inheritance, copy/cost "
                 "timings)",
        )
        command.add_argument(
            "--domination-index",
            choices=list(REGISTRY_KINDS),
            default="fingerprint",
            help="domination registry: fingerprint (indexed), linear "
                 "(original prefiltered scan), naive (unoptimized "
                 "reference), differential (fingerprint checked against "
                 "linear on every query)",
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _demo(args)
    if args.command == "serve-demo":
        return _serve_demo(args)
    if args.command == "plan":
        return _plan(args, check_only=False)
    if args.command == "check":
        return _plan(args, check_only=True)
    return 1  # pragma: no cover -- argparse enforces the choices


def _demo(args) -> int:
    scenario = SCENARIOS[args.scenario]()
    print(scenario.schema.describe())
    print(f"\nquery: {scenario.query}\n")
    result = find_best_plan(
        scenario.schema,
        scenario.query,
        SearchOptions(
            max_accesses=args.max_accesses,
            chase_policy=_chase_policy(args, scenario.schema),
            domination_index=args.domination_index,
        ),
    )
    _print_chase_stats(args, result)
    _print_search_stats(args, result)
    if not result.found:
        print("no complete plan exists within the access budget")
        return 2
    print(result.best_plan.describe())
    print(f"\nstatic cost: {result.best_cost}")
    print(f"proof: {result.best_proof}\n")
    instance = scenario.instance(args.seed)
    source = _make_source(scenario.schema, instance, args.source)
    clock = VirtualClock()
    faulty = bool(args.fault_rate) or bool(args.outage)
    if faulty:
        policy = FaultPolicy.transient(args.fault_rate, seed=args.fault_seed)
        if args.outage:
            policy = FaultPolicy(
                seed=policy.seed,
                unavailable_rate=policy.unavailable_rate,
                timeout_rate=policy.timeout_rate,
                rate_limit_rate=policy.rate_limit_rate,
                outages={method: 0 for method in args.outage},
            )
        source = FaultInjectingSource(source, policy, clock=clock)
    resilience = None
    if faulty or args.retry or args.deadline is not None or args.failover:
        resilience = ResilientDispatcher(
            retry=RetryPolicy(
                max_attempts=args.retry + 1, seed=args.fault_seed
            ),
            breakers=BreakerRegistry(clock=clock),
            deadline=(
                Deadline(args.deadline, clock=clock)
                if args.deadline is not None
                else None
            ),
            sleep=clock.sleep,
        )
    cache = AccessCache() if args.access_cache else None
    exec_stats = (
        ExecStats() if (args.exec_stats or args.calibrated) else None
    )
    truth = instance.evaluate(scenario.query)
    if args.failover:
        executor = FailoverExecutor(
            scenario.schema,
            source,
            resilience=resilience,
            cache=cache,
            stats=exec_stats,
        )
        outcome = executor.run(scenario.query)
        print(f"failover outcome: {outcome.describe()}")
        if not outcome.ok:
            return 1
        output = outcome.table
    else:
        try:
            output = result.best_plan.execute(
                source,
                cache=cache,
                stats=exec_stats,
                resilience=resilience,
                executor=args.executor,
            )
        except ReproError as error:
            print(f"execution FAILED: {error}")
            return 1
    complete = (
        bool(output.rows) == bool(truth)
        if scenario.query.is_boolean
        else set(output.rows) == truth
    )
    inner = source.inner if faulty else source
    print(
        f"executed on a generated instance ({instance.size()} tuples): "
        f"{len(output.rows)} answer rows, "
        f"{inner.total_invocations} accesses, "
        f"runtime cost {inner.charged_cost():.1f}"
    )
    if faulty:
        print(f"faults [{source.stats.summary()}]")
    if resilience is not None:
        print(f"resilience [{resilience.summary()}]")
    if exec_stats is not None:
        print(f"exec [{exec_stats.summary()}]")
    if cache is not None:
        print(f"cache [{cache.summary()}]")
    adapter = _adapter_summary(inner)
    if adapter:
        print(adapter)
    if args.calibrated and exec_stats is not None:
        _demo_calibrated(args, scenario, instance, exec_stats)
    print(f"complete: {'yes' if complete else 'NO'}")
    return 0 if complete else 1


def _demo_calibrated(args, scenario, instance, exec_stats) -> None:
    """Re-plan with feedback-calibrated costs and size-bound pruning."""
    from repro.cost import (
        CalibrationStore,
        CardinalityCostFunction,
        SizeBounds,
    )

    store = CalibrationStore()
    observed = store.observe_stats(
        exec_stats,
        {m.name: m.relation for m in scenario.schema.methods},
    )
    cost = CardinalityCostFunction(
        relation_cardinality={},
        calibration=store,
        bounds=SizeBounds.from_instance(scenario.schema, instance),
    )
    calibrated = find_best_plan(
        scenario.schema,
        scenario.query,
        SearchOptions(
            max_accesses=args.max_accesses,
            cost=cost,
            prune_by_bound=True,
            chase_policy=_chase_policy(args, scenario.schema),
            domination_index=args.domination_index,
        ),
    )
    print(f"\ncalibration [{store.summary()}]")
    if not calibrated.found:
        print("calibrated re-plan: no complete plan within the budget")
        return
    stats = calibrated.stats
    print(
        f"calibrated re-plan: cost {calibrated.best_cost:.2f} over "
        f"{len(calibrated.best_plan.access_commands)} accesses "
        f"({stats.nodes_expanded} nodes expanded, "
        f"{stats.pruned_by_bound} closed by branch-and-bound)"
    )


def _serve_demo(args) -> int:
    from repro.data.decorators import LatencySource
    from repro.exec.budget import ResourceBudget
    from repro.errors import ServiceOverloaded
    from repro.planner import PlanCache
    from repro.service import (
        PRIORITY_CLASSES,
        PRIORITY_NAMES,
        ProcessWorkerPool,
        QueryService,
        ThreadWorkerPool,
    )

    if args.chaos_scenario is not None:
        return _chaos_scenario(args)
    scenario = SCENARIOS[args.scenario]()
    search_options = SearchOptions(
        max_accesses=args.max_accesses,
        chase_policy=_chase_policy(args, scenario.schema),
        domination_index=args.domination_index,
    )
    use_plan_cache = args.plan_cache or args.plan_cache_dir is not None
    plan_cache = (
        PlanCache(directory=args.plan_cache_dir) if use_plan_cache else None
    )
    calibration = None
    if args.calibration_file is not None:
        from repro.cost import CalibrationStore

        calibration = CalibrationStore(path=args.calibration_file)
    plan = None
    if not use_plan_cache:
        result = find_best_plan(scenario.schema, scenario.query,
                                search_options)
        if not result.found:
            print("no complete plan exists within the access budget")
            return 2
        plan = result.best_plan
        print(plan.describe())
    instance = scenario.instance(args.seed)
    backend = _make_source(scenario.schema, instance, args.source)
    source = backend
    if args.latency:
        source = LatencySource(source, args.latency)
    resilience = {
        "watchdog_seconds": args.watchdog_seconds,
        "hedge": args.hedge,
        "hedge_delay": args.hedge_delay,
    }
    if args.worker_tier == "process":
        worker_pool = ProcessWorkerPool.for_source(
            source, workers=args.tier_workers, **resilience
        )
    elif args.worker_tier == "thread":
        worker_pool = ThreadWorkerPool(workers=args.tier_workers, **resilience)
    else:
        worker_pool = None
        if args.hedge or args.watchdog_seconds is not None:
            print(
                "note: --hedge/--watchdog-seconds apply to the execution "
                "tier; pass --worker-tier thread|process to enable them"
            )
    budget = (
        ResourceBudget(max_result_rows=args.budget_rows)
        if args.budget_rows is not None
        else None
    )
    service = QueryService(
        source,
        workers=args.workers,
        max_queue=args.max_queue,
        # Process workers run over their own runtime: an access cache
        # cannot cross into them, so only the other tiers get one.
        cache=AccessCache() if args.worker_tier != "process" else None,
        retry=RetryPolicy(),
        default_deadline=args.deadline,
        default_budget=budget,
        executor=args.executor,
        worker_pool=worker_pool,
        plan_cache=plan_cache,
        calibration=calibration,
    )
    tier = args.worker_tier if worker_pool is not None else "in-service"
    print(
        f"\nserving {args.requests} requests on {args.workers} workers "
        f"(queue {args.max_queue}, per-access latency {args.latency}s, "
        f"execution tier {tier}, source {args.source})\n"
    )
    with service:
        tickets = []
        for index in range(args.requests):
            priority = PRIORITY_CLASSES[index % len(PRIORITY_CLASSES)]
            try:
                if use_plan_cache:
                    ticket = service.submit_query(
                        scenario.query,
                        search_options=search_options,
                        priority=priority,
                    )
                else:
                    ticket = service.submit(plan, priority=priority)
                tickets.append((priority, ticket))
            except ServiceOverloaded as error:
                print(
                    f"q{index + 1} ({PRIORITY_NAMES[priority]}): SHED at "
                    f"admission -- {error} "
                    f"(retry after {error.retry_after:.3f}s)"
                )
        for priority, ticket in tickets:
            response = ticket.result(timeout=60)
            print(f"{PRIORITY_NAMES[priority]:>11}: {response.describe()}")
        health = service.health()
    print(f"\nhealth: {health.summary()}")
    if health.cache:
        print(f"cache: hits={health.cache['hits']} "
              f"misses={health.cache['misses']} "
              f"stampedes collapsed={health.cache['stampedes_collapsed']}")
    if health.plan_cache is not None:
        print(f"plan cache: hits={health.plan_cache['hits']} "
              f"misses={health.plan_cache['misses']} "
              f"disk hits={health.plan_cache['disk_hits']} "
              f"searches run={health.planned}")
    if health.worker_tier is not None:
        print(f"worker tier: {health.worker_tier}")
    if health.calibration is not None:
        print(
            f"calibration: v{health.calibration['version']} "
            f"({health.calibration['observations']} commands over "
            f"{health.calibration['methods']} methods, "
            f"persisted={health.calibration['persistent']})"
        )
    adapter = _adapter_summary(backend)
    if adapter:
        print(f"adapter: {adapter}")
    return 0


def _chaos_scenario(args) -> int:
    """Run one deterministic chaos scenario and print its report.

    Exit status 0 when every invariant held (terminate / sound /
    accounted / typed), 3 when the report carries violations or hangs.
    """
    from repro.chaos import run_scenario

    report = run_scenario(args.chaos_scenario, seed=args.seed, quick=True)
    print(report.summary())
    print(f"  outcomes: {dict(report.outcomes)}")
    if report.error_types:
        print(f"  typed errors: {dict(report.error_types)}")
    for key, value in sorted(report.details.items()):
        print(f"  {key}: {value}")
    if not report.ok:
        for violation in report.violations:
            print(f"  VIOLATION: {violation}")
        return 3
    return 0


def _chase_policy(args, schema):
    """The schema-appropriate chase policy with the requested strategy."""
    policy = default_policy_for(schema)
    policy.strategy = args.chase_strategy
    return policy


def _print_chase_stats(args, result) -> None:
    if args.chase_stats:
        print(f"chase [{result.stats.chase.summary()}]\n")


def _print_search_stats(args, result) -> None:
    if args.search_stats:
        print(f"search stats:\n{result.stats.summary()}\n")


def _plan(args, check_only: bool) -> int:
    with open(args.schema) as handle:
        schema = schema_from_dict(json.load(handle))
    query = parse_cq(args.query)
    result = find_best_plan(
        schema,
        query,
        SearchOptions(
            max_accesses=args.max_accesses,
            chase_policy=_chase_policy(args, schema),
            domination_index=args.domination_index,
        ),
    )
    _print_chase_stats(args, result)
    _print_search_stats(args, result)
    if not result.found:
        print("not answerable within the access budget")
        return 2
    if check_only:
        print(f"answerable (cheapest plan cost: {result.best_cost})")
        return 0
    print(result.best_plan.describe())
    print(f"\nstatic cost: {result.best_cost}")
    print(f"proof: {result.best_proof}")
    if args.sql:
        print("\n-- SQL rendering --")
        print(to_sql(result.best_plan))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
