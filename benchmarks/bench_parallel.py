"""PARALLEL: the process execution tier and the fingerprint plan cache.

A standalone runner (``python benchmarks/bench_parallel.py``) that
measures the two "scale past the GIL" subsystems and writes the
machine-readable ``BENCH_parallel.json`` (rendered by ``report.py
--parallel-json``):

* **process scaling** -- the same burst of CPU-bound requests (the
  row-heavy join workload whose interpreter cost is pure Python, i.e.
  the GIL-bound regime where in-process threads cannot help) served at
  increasing :class:`~repro.service.ProcessWorkerPool` worker counts,
  plus a :class:`~repro.service.ThreadWorkerPool` row for contrast.
  Every response is asserted byte-identical to the single-process
  sequential reference, so the speedup column is soundness-checked.
  The speedup floor is **CPU-aware**: the report records
  ``os.cpu_count()`` and only enforces a floor the hardware can
  honestly meet (3x at 8 workers needs >= 8 cores; a 1-core container
  records ``cpu_limited`` instead of fabricating parallelism).
* **plan cache** -- a repeated-query workload served through
  ``QueryService.submit_query``: the first occurrence of each distinct
  query pays the proof search, every repeat is a fingerprint hit.  The
  report records the fraction of search invocations eliminated
  (asserted >= 95%, hardware-independent), the cold-vs-warm planning
  latency, and a restart trial where a fresh process re-reads the
  plans from the on-disk cache tier without re-searching.
* **sharded scan** -- a :class:`~repro.data.ShardedInMemorySource`
  answering the same plan as the unsharded source, asserted identical
  with identical access metering (partitioning is invisible to the
  cost ledger).
"""

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

sys.path.insert(
    0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

from benchmarks.bench_execution import row_heavy_workload  # noqa: E402

from repro.data.source import InMemorySource, ShardedInMemorySource
from repro.logic.queries import parse_cq
from repro.planner import PlanCache
from repro.service import ProcessWorkerPool, QueryService, ThreadWorkerPool


def canonical(table):
    return (table.attributes, tuple(sorted(map(repr, table.rows))))


def serve_burst(source, plan, requests, worker_pool=None, workers=1):
    """Wall time of a burst of identical requests; returns responses."""
    service = QueryService(
        source,
        workers=workers,
        max_queue=requests + 1,
        worker_pool=worker_pool,
    )
    with service:
        # One warm-up request outside the timed region: spawn-tier
        # workers pay interpreter startup + source rehydration once,
        # which is amortized cost, not per-request cost.
        service.submit(plan).result(timeout=600)
        started = perf_counter()
        tickets = [service.submit(plan) for _ in range(requests)]
        responses = [ticket.result(timeout=600) for ticket in tickets]
        elapsed = perf_counter() - started
        health = service.health()
    return elapsed, responses, health


# ----------------------------------------------------------- process scaling
def scaling_sweep(n, requests, workers_list):
    """The CPU-bound burst at each process-tier width, plus threads."""
    schema, instance, plan = row_heavy_workload(n)
    source = InMemorySource(schema, instance)
    started = perf_counter()
    reference = canonical(plan.execute(source))
    single_exec = perf_counter() - started
    rows = []
    baseline = None
    for workers in workers_list:
        pool = ProcessWorkerPool.for_source(source, workers=workers)
        elapsed, responses, health = serve_burst(
            source, plan, requests, worker_pool=pool, workers=workers
        )
        for response in responses:
            assert response.complete, response.describe()
            assert canonical(response.table) == reference, workers
        throughput = requests / elapsed
        if baseline is None:
            baseline = throughput
        rows.append(
            {
                "tier": "process",
                "workers": workers,
                "wall_time": elapsed,
                "throughput_rps": throughput,
                "speedup": throughput / baseline,
                "identical_to_reference": True,
                "crashes": health.worker_tier["crashes"],
            }
        )
    # The GIL contrast row: the same width of in-process threads.  On a
    # CPU-bound workload this cannot scale (the interpreter serializes
    # it), which is the whole argument for the process tier.
    top = max(workers_list)
    pool = ThreadWorkerPool(workers=top)
    elapsed, responses, _health = serve_burst(
        source, plan, requests, worker_pool=pool, workers=top
    )
    for response in responses:
        assert response.complete, response.describe()
        assert canonical(response.table) == reference, "thread tier"
    rows.append(
        {
            "tier": "thread",
            "workers": top,
            "wall_time": elapsed,
            "throughput_rps": requests / elapsed,
            "speedup": (requests / elapsed) / baseline,
            "identical_to_reference": True,
            "crashes": 0,
        }
    )
    return {
        "rows_per_relation": n,
        "requests": requests,
        "single_exec_time": single_exec,
        "rows": rows,
    }


def scaling_floor(scaling, cpu_count):
    """The honest speedup floor for this machine, and whether it held.

    The acceptance bar -- 3x at 8 process workers -- is only physically
    meaningful with >= 8 cores; narrower machines get a proportionally
    narrower floor, and a 1-core container gets correctness checks only
    (the report says so instead of asserting fiction).
    """
    floors = {8: 3.0, 4: 1.6, 2: 1.15}
    process_rows = {
        row["workers"]: row
        for row in scaling["rows"]
        if row["tier"] == "process"
    }
    eligible = [
        w for w in floors if w in process_rows and cpu_count >= w
    ]
    if not eligible:
        return {
            "required": False,
            "reason": f"cpu_count={cpu_count} cannot host parallel "
                      "speedup; identical-answer checks still enforced",
            "held": True,
        }
    width = max(eligible)
    achieved = process_rows[width]["speedup"]
    return {
        "required": True,
        "workers": width,
        "min_speedup": floors[width],
        "achieved": achieved,
        "held": achieved >= floors[width],
    }


# --------------------------------------------------------------- plan cache
CACHE_QUERIES = [
    "q(x, y) :- R(x, y)",
    "q(x, y) :- S(x, y)",
    "q(a, c) :- R(a, b) & S(b, c)",
]


def plan_cache_workload(n, repeats, distinct, directory):
    """Repeated queries through submit_query: search runs once each."""
    schema, instance, _plan = row_heavy_workload(n)
    source = InMemorySource(schema, instance)
    queries = [parse_cq(text) for text in CACHE_QUERIES[:distinct]]
    cache = PlanCache(directory=directory)
    service = QueryService(
        source,
        workers=2,
        max_queue=len(queries) * repeats + 8,
        plan_cache=cache,
    )
    cold_times, warm_times = [], []
    with service:
        for query in queries:
            started = perf_counter()
            service.plan_for(query)
            cold_times.append(perf_counter() - started)
        for _ in range(8):
            for query in queries:
                started = perf_counter()
                service.plan_for(query)
                warm_times.append(perf_counter() - started)
        tickets = []
        for round_index in range(repeats):
            for query in queries:
                tickets.append(service.submit_query(query))
        for ticket in tickets:
            response = ticket.result(timeout=600)
            assert response.complete, response.describe()
        health = service.health()
    submissions = len(queries) * repeats
    searches = health.planned
    counters = health.plan_cache
    plan_requests = len(queries) * 9 + submissions
    eliminated = 1.0 - searches / plan_requests
    cold = sum(cold_times) / len(cold_times)
    warm = sum(warm_times) / len(warm_times)

    # Restart trial: a fresh cache object over the same directory must
    # serve every plan from the disk tier without a single search.
    restart = {"enabled": directory is not None}
    if directory is not None:
        fresh = PlanCache(directory=directory)
        restarted = QueryService(
            source, workers=2, max_queue=64, plan_cache=fresh
        )
        with restarted:
            for query in queries:
                restarted.plan_for(query)
            after = restarted.health()
        restart.update(
            searches_after_restart=after.planned,
            disk_hits=after.plan_cache["disk_hits"],
        )
    return {
        "distinct_queries": len(queries),
        "submissions": submissions,
        "searches_run": searches,
        "search_eliminated": eliminated,
        "hit_rate": counters["hit_rate"],
        "cold_plan_ms": cold * 1e3,
        "warm_plan_ms": warm * 1e3,
        "warm_over_cold": warm / cold if cold else 0.0,
        "counters": counters,
        "restart": restart,
    }


# ------------------------------------------------------------- sharded scan
def sharded_scan(n, shards):
    """Sharded vs plain source: same answers, same access metering."""
    schema, instance, plan = row_heavy_workload(n)
    plain = InMemorySource(schema, instance)
    started = perf_counter()
    reference = canonical(plan.execute(plain))
    plain_time = perf_counter() - started
    rows = []
    for pool in (None, ThreadPoolExecutor(max_workers=shards)):
        sharded = ShardedInMemorySource(
            schema, instance, shards=shards, pool=pool
        )
        started = perf_counter()
        answer = canonical(plan.execute(sharded))
        elapsed = perf_counter() - started
        assert answer == reference, "sharded scan answers diverge"
        assert sharded.total_invocations == plain.total_invocations, (
            sharded.total_invocations,
            plain.total_invocations,
        )
        rows.append(
            {
                "parallel_scan": pool is not None,
                "wall_time": elapsed,
                "identical_to_reference": True,
                "invocations": sharded.total_invocations,
            }
        )
        if pool is not None:
            pool.shutdown(wait=True)
    partition_sizes = [
        part.instance.size() for part in sharded.partitions
    ]
    assert sum(partition_sizes) == instance.size()
    return {
        "rows_per_relation": n,
        "shards": shards,
        "plain_time": plain_time,
        "partition_sizes": partition_sizes,
        "metering_identical": True,
        "rows": rows,
    }


def run_benchmark(quick):
    """The full report dict (also asserting soundness throughout)."""
    cpu_count = os.cpu_count() or 1
    if quick:
        workers_list = [1, 2]
        scaling = scaling_sweep(n=1500, requests=6, workers_list=workers_list)
    else:
        workers_list = [1, 2, 4, 8]
        scaling = scaling_sweep(n=5000, requests=12, workers_list=workers_list)
    floor = scaling_floor(scaling, cpu_count)
    assert floor["held"], floor
    with tempfile.TemporaryDirectory() as tmp:
        cache = plan_cache_workload(
            n=400,
            repeats=20 if quick else 40,
            distinct=2 if quick else 3,
            directory=tmp,
        )
    # The hardware-independent acceptance bar: a warm cache eliminates
    # at least 95% of search invocations, and a warm plan costs a small
    # fraction of a cold one.
    assert cache["search_eliminated"] >= 0.95, cache
    assert cache["warm_over_cold"] < 0.5, cache
    assert cache["restart"]["searches_after_restart"] == 0, cache
    sharding = sharded_scan(n=800 if quick else 2000, shards=4)
    return {
        "benchmark": "bench_parallel",
        "mode": "quick" if quick else "full",
        "cpu_count": cpu_count,
        "cpu_limited": cpu_count < max(workers_list),
        "scaling": scaling,
        "scaling_floor": floor,
        "plan_cache": cache,
        "sharding": sharding,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="measure the process execution tier and the plan cache"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small burst (6 requests, 2 worker counts) for CI",
    )
    parser.add_argument(
        "--output", default="BENCH_parallel.json", help="report destination"
    )
    args = parser.parse_args(argv)
    report = run_benchmark(args.quick)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(
        f"cpu_count {report['cpu_count']}"
        + (" (cpu-limited: scaling floor waived)"
           if report["cpu_limited"] else "")
    )
    for row in report["scaling"]["rows"]:
        print(
            f"{row['tier']:>8} x{row['workers']}: "
            f"{row['throughput_rps']:.2f} req/s "
            f"({row['speedup']:.2f}x), identical answers"
        )
    cache = report["plan_cache"]
    print(
        f"plan cache: {cache['searches_run']} searches for "
        f"{cache['submissions']} submissions "
        f"({cache['search_eliminated']:.1%} eliminated), "
        f"cold {cache['cold_plan_ms']:.2f} ms -> "
        f"warm {cache['warm_plan_ms']:.4f} ms, "
        f"restart searches {cache['restart']['searches_after_restart']}"
    )
    for row in report["sharding"]["rows"]:
        mode = "parallel" if row["parallel_scan"] else "serial"
        print(
            f"sharded scan ({mode}): {row['wall_time'] * 1e3:.1f} ms, "
            f"identical answers, metering parity"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
