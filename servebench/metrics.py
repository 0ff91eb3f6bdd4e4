"""End-to-end and per-layer metrics from the client's request records."""

from __future__ import annotations

import math
import multiprocessing
import resource
import statistics
from time import perf_counter
from typing import Dict, List

from repro.planner.search import find_best_plan
from repro.plans.ir import PlanIR

from spans import LAYERS, request_spans, self_times

#: Reported in place of an infinite percentile (a failed request landed
#: on it): a latency no served request can reach.
MISSED_MS = 1e9


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _ms(seconds: float) -> float:
    return MISSED_MS if math.isinf(seconds) else seconds * 1e3


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def access_cost(response, schema) -> float:
    """The paper's cost of one served plan: sum of method cost x accesses.

    An access is one distinct input tuple an access command dispatched,
    answered by the backend or by the access cache alike.
    """
    return sum(
        schema.method(command.method).cost * command.dispatched
        for command in response.stats.commands
        if command.kind == "access"
    )


def backend_cost(response, schema) -> float:
    """The cost of the accesses that reached the backend (cache misses)."""
    return sum(
        schema.method(command.method).cost * (command.dispatched - command.cache_hits)
        for command in response.stats.commands
        if command.kind == "access"
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live worker processes."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            pass
    return total_kib / 1024.0


def slices(records, elapsed: float):
    """Split a window into equal time slices of at least 200 requests.

    At most fifteen slices; each keeps at least ten requests beyond its
    95th percentile.  Reporting the median over slices keeps bursts of
    machine noise in a minority of slices from moving the run's figures.
    """
    count = max(1, min(15, len(records) // 200))
    begin = min(r.t_due if r.t_due is not None else r.t_start for r in records)
    width = elapsed / count
    groups = [[] for _ in range(count)]
    for record in records:
        end = record.t_done if record.t_done is not None else begin + elapsed
        groups[min(count - 1, max(0, int((end - begin) / width)))].append(record)
    return [group for group in groups if group], width


def end_to_end(records, elapsed: float, setup_s: float, rss_mb: float) -> Dict:
    """The user-visible metrics of one untraced window (slice medians)."""
    completed = [r for r in records if r.complete]
    groups, width = slices(records, elapsed)

    def median_over_slices(measure):
        return statistics.median(measure(group) for group in groups)

    return {
        "throughput_rps": (
            median_over_slices(lambda g: sum(1 for r in g if r.complete) / width), "1/s"),
        "latency_p50_ms": (
            _ms(median_over_slices(lambda g: percentile([r.latency for r in g], 0.50))), "ms"),
        "latency_p95_ms": (
            _ms(median_over_slices(lambda g: percentile([r.latency for r in g], 0.95))), "ms"),
        "complete_frac": (_per(len(completed), len(records)), "ratio"),
        "access_cost_per_req": (_per(sum(r.cost for r in completed), len(completed)), "cost"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def replay_searches(schema, queries, limit: int) -> List:
    """Re-run Algorithm 1 on up to ``limit`` queries: (seconds, result)."""
    runs = []
    for query in queries[:limit]:
        started = perf_counter()
        result = find_best_plan(schema, query)
        runs.append((perf_counter() - started, result))
    return runs


def ir_round_trip_ms(plans, repeats: int = 15):
    """Median encode and decode time of each plan's IR, averaged over plans."""
    encode, decode = [], []
    for plan in plans:
        enc, dec = [], []
        for _ in range(repeats):
            started = perf_counter()
            text = PlanIR.from_plan(plan).to_json()
            middle = perf_counter()
            PlanIR.from_json(text).to_plan()
            enc.append(middle - started)
            dec.append(perf_counter() - middle)
        encode.append(statistics.median(enc))
        decode.append(statistics.median(dec))
    return _per(sum(encode), len(encode)) * 1e3, _per(sum(decode), len(decode)) * 1e3


def per_layer(
    traced,
    untraced,
    counters: Dict[str, float],
    searches: List,
    ir_ms,
    schema,
    process_tier: bool,
) -> Dict:
    """The per-layer metrics of the traced windows of one run."""
    served = [r for r in traced if r.response is not None]
    complete = [r for r in traced if r.complete]
    n = len(served)
    stats = [r.response.stats for r in served if r.response.stats is not None]
    commands = [c for s in stats for c in s.commands]
    access = [c for c in commands if c.kind == "access"]
    middleware = [c for c in commands if c.kind != "access"]

    plan_ms = [(r.t_planned - r.t_start) * 1e3 for r in served]
    exec_ms = [s.wall_time * 1e3 for s in stats]
    queue_ms = [r.response.queue_wait * 1e3 for r in served]
    ship_ms = [
        (r.response.wall_time - r.response.stats.wall_time) * 1e3
        for r in served
        if r.response.stats is not None
    ]
    overhead_ms = [
        (r.latency - (r.t_planned - r.t_start) - r.response.wall_time - r.response.queue_wait) * 1e3
        for r in complete
    ]
    lateness_ms = [(r.t_start - r.t_due) * 1e3 for r in traced if r.t_due is not None]

    # Backend time: proxied calls in-process; the access commands
    # themselves on the process tier, where the backend lives in workers.
    if process_tier:
        backend_s = sum(c.wall_time for c in access)
        batched = sum(1 for c in access if c.dispatched > 1)
        backend_calls = sum(1 if c.dispatched > 1 else c.dispatched for c in access)
    else:
        events = [e for r in served if r.trace for e in r.trace.events if e[0].startswith("sources.")]
        backend_s = sum(end - start for _n, _m, _k, start, end in events)
        batched = sum(1 for e in events if e[0] == "sources.access_batch")
        backend_calls = len(events)

    layer_s = {layer: 0.0 for layer in LAYERS}
    unattributed_s = 0.0
    search_ms = []  # Algorithm 1 runs inside plan_for, as served
    for record in complete:
        spans = request_spans(record, process_tier)
        search_ms.extend(s.duration * 1e3 for s in spans if s.name == "planner.search")
        for layer, seconds in self_times(spans).items():
            if layer is None:
                unattributed_s += seconds
            else:
                layer_s[layer] += seconds
    latency_total_s = sum(r.latency for r in complete)

    cache_lookups = counters["cache_hits"] + counters["cache_misses"]
    plan_lookups = counters["plan_hits"] + counters["plan_misses"]
    search_stats = [result.stats for _, result in searches]
    k = len(search_stats)
    traced_p50 = percentile([r.latency for r in traced], 0.5)
    untraced_p50 = percentile([r.latency for r in untraced], 0.5)

    metrics = {
        "service.queue_wait_ms_p50": (percentile(queue_ms, 0.5), "ms"),
        "service.overhead_ms_p50": (percentile(overhead_ms, 0.5), "ms"),
        "service.shed": (counters["shed"], "count"),
        "service.rejected": (counters["rejected"], "count"),
        "service.ship_ms_p50": (percentile(ship_ms, 0.5), "ms"),
        "service.worker_restarts": (counters["restarts"], "count"),
        "plans.ir_encode_ms": (ir_ms[0], "ms"),
        "plans.ir_decode_ms": (ir_ms[1], "ms"),
        "planner.plan_ms_p50": (percentile(plan_ms, 0.5), "ms"),
        "planner.searches": (counters["planned"], "count"),
        "planner.search_ms_p50": (percentile(search_ms, 0.5), "ms"),
        "planner.nodes_expanded_per_search": (
            _per(sum(s.nodes_expanded for s in search_stats), k), "count"),
        "planner.pruned_by_cost_per_search": (
            _per(sum(s.pruned_by_cost for s in search_stats), k), "count"),
        "planner.pruned_by_domination_per_search": (
            _per(sum(s.pruned_by_domination for s in search_stats), k), "count"),
        "planner.domination_ms_per_search": (
            _per(sum(s.domination.time_seconds for s in search_stats), k) * 1e3, "ms"),
        "planner.domination_hom_calls_per_search": (
            _per(sum(s.domination.hom_calls for s in search_stats), k), "count"),
        "chase.ms_per_search": (
            _per(sum(s.chase.time_search + s.chase.time_fire for s in search_stats), k) * 1e3,
            "ms"),
        "chase.triggers_fired_per_search": (
            _per(sum(s.chase.triggers_fired for s in search_stats), k), "count"),
        "chase.hom_backtracks_per_search": (
            _per(sum(s.chase.hom.backtracks for s in search_stats), k), "count"),
        "planner.plan_cache_hit_rate": (_per(counters["plan_hits"], plan_lookups), "ratio"),
        "plans.exec_ms_p50": (percentile(exec_ms, 0.5), "ms"),
        "plans.middleware_ms_per_req": (_per(sum(c.wall_time for c in middleware), n) * 1e3, "ms"),
        "plans.access_cmd_ms_per_req": (_per(sum(c.wall_time for c in access), n) * 1e3, "ms"),
        "plans.commands_per_req": (_per(len(commands), n), "count"),
        "plans.peak_resident_rows": (max((s.peak_resident_rows for s in stats), default=0), "rows"),
        "exec.cache_hit_rate": (_per(counters["cache_hits"], cache_lookups), "ratio"),
        "exec.cache_evictions": (counters["cache_evictions"], "count"),
        "exec.stampedes_collapsed": (counters["cache_stampedes_collapsed"], "count"),
        "exec.dispatched_per_req": (_per(sum(c.dispatched for c in access), n), "count"),
        "exec.deduped_per_req": (_per(sum(c.deduped for c in access), n), "count"),
        "exec.source_invocations_per_req": (
            _per(sum(c.dispatched - c.cache_hits for c in access), n), "count"),
        "exec.backend_cost_per_req": (
            _per(sum(backend_cost(r.response, schema) for r in complete), len(complete)), "cost"),
        "exec.retries_per_req": (_per(sum(c.retries for c in access), n), "count"),
        "sources.backend_ms_per_req": (_per(backend_s, n) * 1e3, "ms"),
        "sources.backend_share_of_latency": (_per(backend_s, latency_total_s), "ratio"),
        "sources.backend_calls_per_req": (_per(backend_calls, n), "count"),
        "sources.batched_calls_per_req": (_per(batched, n), "count"),
        "sources.http_requests_per_req": (_per(counters.get("http_requests", 0), n), "count"),
        "sources.retry_after_waits": (counters.get("retry_after_waits", 0), "count"),
        "client.lateness_ms_p50": (percentile(lateness_ms, 0.5), "ms"),
        "client.lateness_ms_p95": (percentile(lateness_ms, 0.95), "ms"),
        "trace.requests": (len(traced), "count"),
        "trace.overhead_frac": (
            traced_p50 / untraced_p50 - 1.0 if untraced_p50 and not math.isinf(traced_p50 + untraced_p50) else 0.0,
            "ratio"),
        "trace.unattributed_frac": (_per(unattributed_s, latency_total_s), "ratio"),
        "trace.unattributed_ms_per_req": (_per(unattributed_s, len(complete)) * 1e3, "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_req"] = (
            _per(layer_s[layer], len(complete)) * 1e3, "ms")
    return metrics
