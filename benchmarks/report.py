"""Render benchmark JSON files into the EXPERIMENTS.md tables.

Usage::

    python -m pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
    python benchmarks/report.py bench.json > experiment_tables.md

    python benchmarks/bench_chase.py            # writes BENCH_chase.json
    python benchmarks/report.py --chase-json BENCH_chase.json

    python benchmarks/bench_search.py           # writes BENCH_search.json
    python benchmarks/report.py --search-json BENCH_search.json

    python benchmarks/bench_execution.py        # writes BENCH_exec.json
    python benchmarks/report.py --exec-json BENCH_exec.json

    python benchmarks/bench_cost.py             # writes BENCH_cost.json
    python benchmarks/report.py --cost-json BENCH_cost.json

    python benchmarks/bench_faults.py           # writes BENCH_faults.json
    python benchmarks/report.py --faults-json BENCH_faults.json

    python benchmarks/bench_service.py          # writes BENCH_service.json
    python benchmarks/report.py --service-json BENCH_service.json

    python benchmarks/bench_parallel.py         # writes BENCH_parallel.json
    python benchmarks/report.py --parallel-json BENCH_parallel.json

    python benchmarks/bench_chaos.py            # writes BENCH_chaos.json
    python benchmarks/report.py --chaos-json BENCH_chaos.json

    python benchmarks/bench_adapters.py         # writes BENCH_adapters.json
    python benchmarks/report.py --adapters-json BENCH_adapters.json

The default mode groups pytest-benchmark rows by module and prints one
markdown table per module with mean/stddev timings and every
``extra_info`` measurement.  ``--chase-json`` instead renders the
naive-vs-semi-naive comparison report emitted by ``bench_chase.py``,
``--search-json`` the baseline-vs-incremental search comparison
emitted by ``bench_search.py``, and ``--exec-json`` the
naive-vs-runtime dispatcher comparison emitted by
``bench_execution.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import OrderedDict
from typing import Dict, List


def load(path: str) -> List[Dict]:
    with open(path) as handle:
        return json.load(handle)["benchmarks"]


def group_by_module(benchmarks: List[Dict]) -> "OrderedDict[str, List[Dict]]":
    groups: "OrderedDict[str, List[Dict]]" = OrderedDict()
    for bench in benchmarks:
        module = bench["fullname"].split("::")[0].split("/")[-1]
        groups.setdefault(module, []).append(bench)
    return groups


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return " → ".join(format_value(v) for v in value)
    return str(value)


def render(benchmarks: List[Dict]) -> str:
    lines: List[str] = []
    for module, rows in group_by_module(benchmarks).items():
        lines.append(f"### {module}")
        lines.append("")
        extra_keys: List[str] = []
        for row in rows:
            for key in row.get("extra_info", {}):
                if key not in extra_keys:
                    extra_keys.append(key)
        header = ["benchmark", "mean", "stddev"] + extra_keys
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for row in rows:
            stats = row["stats"]
            cells = [
                row["name"],
                _time(stats["mean"]),
                _time(stats["stddev"]),
            ]
            info = row.get("extra_info", {})
            cells.extend(
                format_value(info[k]) if k in info else ""
                for k in extra_keys
            )
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


def _time(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.2f} s"


def render_chase(report: Dict) -> str:
    """Markdown table for a ``bench_chase.py`` comparison report."""
    lines = [
        f"### chase evaluation: naive vs semi-naive ({report['mode']})",
        "",
        "| workload | naive triggers | semi-naive triggers | reduction"
        " | naive time | semi-naive time | speedup | facts |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in report["workloads"]:
        naive, semi = row["naive"], row["semi_naive"]
        lines.append(
            "| "
            + " | ".join(
                [
                    row["workload"],
                    str(naive["triggers_enumerated"]),
                    str(semi["triggers_enumerated"]),
                    f"{row['trigger_reduction']:.1f}x",
                    _time(naive["wall_time"]),
                    _time(semi["wall_time"]),
                    f"{row['speedup']:.1f}x",
                    str(naive["facts"]),
                ]
            )
            + " |"
        )
    lines.append("")
    return "\n".join(lines)


def render_search(report: Dict) -> str:
    """Markdown table for a ``bench_search.py`` comparison report."""
    lines = [
        "### Algorithm 1 search: baseline vs incremental "
        f"({report['mode']})",
        "",
        "| scenario | baseline homs | incremental homs | reduction"
        " | baseline time | incremental time | speedup"
        " | best cost | nodes |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for row in report["rows"]:
        base, incr = row["baseline"], row["incremental"]
        lines.append(
            "| "
            + " | ".join(
                [
                    row["scenario"],
                    str(base["domination"]["hom_calls"]),
                    str(incr["domination"]["hom_calls"]),
                    f"{row['hom_reduction']:.1f}x",
                    _time(base["wall_time"]),
                    _time(incr["wall_time"]),
                    f"{row['speedup']:.2f}x",
                    format_value(incr["best_cost"]),
                    str(incr["nodes_created"]),
                ]
            )
            + " |"
        )
    lines.append("")
    return "\n".join(lines)


def render_cost(report: Dict) -> str:
    """Markdown tables for a ``bench_cost.py`` comparison report."""
    lines = [
        "### cost model: feedback calibration on misleading fan-outs "
        f"({report['mode']})",
        "",
        "| scenario | true fan-out | uncalibrated pick | measured"
        " | calibrated pick | measured | improvement | flipped |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in report["calibration"]:
        uncal, cal = row["uncalibrated"], row["calibrated"]
        lines.append(
            "| "
            + " | ".join(
                [
                    row["scenario"],
                    str(row["fan_out"]),
                    "+".join(uncal["methods"]),
                    f"{uncal['measured_cost']:.2f}",
                    "+".join(cal["methods"]),
                    f"{cal['measured_cost']:.2f}",
                    f"{row['improvement']:.2f}x",
                    "yes" if row["flipped"] else "no",
                ]
            )
            + " |"
        )
    lines += [
        "",
        "### Algorithm 1: incumbent branch-and-bound pruning",
        "",
        "| scenario | expanded (off) | expanded (on) | reduction"
        " | bound-pruned | best plan |",
        "|---|---|---|---|---|---|",
    ]
    for row in report["pruning"]:
        lines.append(
            "| "
            + " | ".join(
                [
                    row["scenario"],
                    str(row["base_expanded"]),
                    str(row["pruned_expanded"]),
                    f"{row['reduction']:.2f}x",
                    str(row["pruned_by_bound"]),
                    "unchanged" if row["best_cost_equal"] else "CHANGED",
                ]
            )
            + " |"
        )
    admission = report["admission"]
    lines += [
        "",
        f"Admission: doomed plan rejected typed "
        f"(bound {admission['bound']:.0f} > ceiling "
        f"{admission['ceiling']}) after "
        f"{admission['source_invocations']} source invocations; "
        f"headline node reduction {report['node_reduction']:.2f}x, "
        "calibrated pick never measured worse: "
        f"{'yes' if report['calibrated_never_worse'] else 'NO'}.",
        "",
    ]
    return "\n".join(lines)


def render_exec(report: Dict) -> str:
    """Markdown table for a ``bench_execution.py`` comparison report."""
    lines = [
        "### plan execution: naive vs indexed+cached runtime "
        f"({report['mode']}, {report['rounds']} rounds/plan)",
        "",
        "| scenario | naive invocations | runtime invocations | reduction"
        " | naive time | runtime time | speedup"
        " | cache hits | peak resident rows |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for row in report["rows"]:
        naive, runtime = row["naive"], row["runtime"]
        lines.append(
            "| "
            + " | ".join(
                [
                    row["scenario"],
                    str(naive["invocations"]),
                    str(runtime["invocations"]),
                    f"{row['invocation_reduction']:.1f}x",
                    _time(naive["wall_time"]),
                    _time(runtime["wall_time"]),
                    f"{row['speedup']:.2f}x",
                    str(runtime["cache_hits"]),
                    str(runtime["peak_resident_rows"]),
                ]
            )
            + " |"
        )
    lines.append("")
    if report.get("columnar_rows"):
        lines += [
            "### executor backends: interpreter vs columnar "
            "(row-heavy workloads, differential-verified)",
            "",
            "| rows/relation | answer rows | interpreter time"
            " | columnar time | speedup |",
            "|---|---|---|---|---|",
        ]
        for row in report["columnar_rows"]:
            lines.append(
                "| "
                + " | ".join(
                    [
                        str(row["rows_per_relation"]),
                        str(row["answer_rows"]),
                        _time(row["interpreter"]["wall_time"]),
                        _time(row["columnar"]["wall_time"]),
                        f"{row['executor_speedup']:.1f}x",
                    ]
                )
                + " |"
            )
        lines.append("")
    return "\n".join(lines)


def render_faults(report: Dict) -> str:
    """Markdown tables for a ``bench_faults.py`` report."""
    lines = [
        "### execution under faults: unprotected vs resilient "
        f"({report['mode']}, {report['scenario']}, "
        f"{report['retries']} retries)",
        "",
        "| fault rate | unprotected success | resilient success"
        " | identical answers | mean retries | mean backoff"
        " | mean simulated latency |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in report["transient"]["rows"]:
        plain, hard = row["unprotected"], row["resilient"]
        lines.append(
            "| "
            + " | ".join(
                [
                    f"{row['rate']:.1f}",
                    f"{plain['success_rate']:.0%}",
                    f"{hard['success_rate']:.0%}",
                    "yes" if hard["identical_to_reference"] else "NO",
                    f"{hard['mean_retries']:.1f}",
                    _time(hard["mean_backoff"]),
                    _time(hard["mean_sim_latency"]),
                ]
            )
            + " |"
        )
    outage = report["outage"]
    lines += [
        "",
        f"### single permanent outage, served via failover "
        f"({outage['scenario']}: {outage['methods']} methods, "
        f"success rate {outage['success_rate']:.0%})",
        "",
        "| dead method | outcome | failovers | plans tried | answer rows |",
        "|---|---|---|---|---|",
    ]
    for row in outage["rows"]:
        lines.append(
            "| "
            + " | ".join(
                [
                    row["victim"],
                    row["outcome"],
                    str(row["failovers"]),
                    str(len(row["plans_tried"])),
                    str(row["rows"]),
                ]
            )
            + " |"
        )
    lines.append("")
    return "\n".join(lines)


def render_service(report: Dict) -> str:
    """Markdown tables for a ``bench_service.py`` report."""
    lines = [
        "### concurrent serving: throughput and latency vs workers "
        f"({report['mode']}, {report['scenario']}, "
        f"{report['throughput']['requests']} requests, "
        f"{report['access_latency'] * 1e3:.0f} ms access latency)",
        "",
        "| workers | throughput | speedup | p50 latency | p95 latency"
        " | p99 latency | identical answers |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in report["throughput"]["rows"]:
        lines.append(
            "| "
            + " | ".join(
                [
                    str(row["workers"]),
                    f"{row['throughput_rps']:.1f} req/s",
                    f"{row['speedup']:.2f}x",
                    _time(row["p50_latency"]),
                    _time(row["p95_latency"]),
                    _time(row["p99_latency"]),
                    "yes" if row["identical_to_reference"] else "NO",
                ]
            )
            + " |"
        )
    lines += [
        "",
        "### load shedding under burst overload "
        "(served + shed + rejected == submitted, asserted)",
        "",
        "| offered load | submitted | served | shed (queued)"
        " | rejected at door | shed rate | all accounted |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in report["shedding"]["rows"]:
        lines.append(
            "| "
            + " | ".join(
                [
                    f"{row['offered_multiplier']:.1f}x",
                    str(row["submitted"]),
                    str(row["served"]),
                    str(row["shed_queued"]),
                    str(row["rejected_at_door"]),
                    f"{row['shed_rate']:.0%}",
                    "yes" if row["all_accounted"] else "NO",
                ]
            )
            + " |"
        )
    lines.append("")
    return "\n".join(lines)


def render_chaos(report: Dict) -> str:
    """Markdown tables for a ``bench_chaos.py`` report."""
    lines = [
        f"### chaos matrix ({report['mode']}): every scenario terminates "
        "typed and sound",
        "",
        "| scenario | submitted | outcomes | typed errors | hangs"
        " | violations | elapsed / deadline |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in report["matrix"]["rows"]:
        outcomes = ", ".join(
            f"{k}={v}" for k, v in sorted(row["outcomes"].items())
        )
        errors = (
            ", ".join(
                f"{k}={v}" for k, v in sorted(row["error_types"].items())
            )
            or "-"
        )
        lines.append(
            "| "
            + " | ".join(
                [
                    row["scenario"],
                    str(row["submitted"]),
                    outcomes,
                    errors,
                    str(row["hangs"]),
                    str(row["violations"]),
                    f"{_time(row['elapsed'])} / {row['deadline']:.0f} s",
                ]
            )
            + " |"
        )
    lines += [
        "",
        "### hedged dispatch vs the latency storm "
        "(identical answers, asserted row by row)",
        "",
        "| mode | requests | p50 | p95 | p99 | hedges (wins/waste) |",
        "|---|---|---|---|---|---|",
    ]
    for row in report["hedging"]["rows"]:
        lines.append(
            "| "
            + " | ".join(
                [
                    "hedged" if row["hedged"] else "unhedged",
                    str(row["requests"]),
                    _time(row["p50_latency"]),
                    _time(row["p95_latency"]),
                    _time(row["p99_latency"]),
                    f"{row['hedges']} ({row['hedge_wins']}"
                    f"/{row['hedge_waste']})",
                ]
            )
            + " |"
        )
    lines += [
        "",
        f"P99 reduction from hedging: **{report['p99_reduction']:.0%}**",
        "",
    ]
    return "\n".join(lines)


def render_parallel(report: Dict) -> str:
    """Markdown tables for a ``bench_parallel.py`` report."""
    scaling = report["scaling"]
    floor = report["scaling_floor"]
    cpu_note = (
        f"{report['cpu_count']} cores"
        + (", cpu-limited: scaling floor waived" if report["cpu_limited"]
           else "")
    )
    lines = [
        "### process execution tier: CPU-bound scaling past the GIL "
        f"({report['mode']}, {scaling['requests']} requests, "
        f"{scaling['rows_per_relation']} rows/relation, {cpu_note})",
        "",
        "| tier | workers | throughput | speedup | identical answers |",
        "|---|---|---|---|---|",
    ]
    for row in scaling["rows"]:
        lines.append(
            "| "
            + " | ".join(
                [
                    row["tier"],
                    str(row["workers"]),
                    f"{row['throughput_rps']:.2f} req/s",
                    f"{row['speedup']:.2f}x",
                    "yes" if row["identical_to_reference"] else "NO",
                ]
            )
            + " |"
        )
    if floor["required"]:
        lines.append(
            f"\nspeedup floor: >= {floor['min_speedup']:.1f}x at "
            f"{floor['workers']} workers, achieved "
            f"{floor['achieved']:.2f}x "
            f"({'held' if floor['held'] else 'VIOLATED'})"
        )
    else:
        lines.append(f"\nspeedup floor: waived ({floor['reason']})")
    cache = report["plan_cache"]
    lines += [
        "",
        "### fingerprint-keyed plan cache: repeated queries skip the "
        "search",
        "",
        "| distinct queries | submissions | searches run"
        " | search eliminated | cold plan | warm plan"
        " | restart searches (disk tier) |",
        "|---|---|---|---|---|---|---|",
        "| "
        + " | ".join(
            [
                str(cache["distinct_queries"]),
                str(cache["submissions"]),
                str(cache["searches_run"]),
                f"{cache['search_eliminated']:.1%}",
                f"{cache['cold_plan_ms']:.2f} ms",
                f"{cache['warm_plan_ms']:.4f} ms",
                str(cache["restart"].get("searches_after_restart", "-")),
            ]
        )
        + " |",
    ]
    sharding = report["sharding"]
    lines += [
        "",
        "### sharded source: partial scans merge to identical answers "
        f"({sharding['shards']} shards, "
        f"{sharding['rows_per_relation']} rows/relation, "
        f"partition sizes {sharding['partition_sizes']})",
        "",
        "| scan | wall time | identical answers | metered accesses |",
        "|---|---|---|---|",
    ]
    for row in sharding["rows"]:
        lines.append(
            "| "
            + " | ".join(
                [
                    "parallel" if row["parallel_scan"] else "serial",
                    _time(row["wall_time"]),
                    "yes" if row["identical_to_reference"] else "NO",
                    str(row["invocations"]),
                ]
            )
            + " |"
        )
    lines.append("")
    return "\n".join(lines)


def render_adapters(report: Dict) -> str:
    """Markdown tables for a ``bench_adapters.py`` report."""
    lines = [
        f"### real backends vs the in-memory oracle ({report['mode']}): "
        "byte-identical answers in every cell",
        "",
        "| scenario | backend | condition | answer rows | identical"
        " | accesses | reconnects | retry-after waits |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in report["differential"]["rows"]:
        counters = row["counters"]
        lines.append(
            "| "
            + " | ".join(
                [
                    row["scenario"],
                    row["backend"],
                    row["condition"],
                    str(row["answer_rows"]),
                    "yes" if row["identical"] else "NO",
                    str(row["accesses"]),
                    str(counters.get("reconnects", "-")),
                    str(counters.get("retry_after_waits", "-")),
                ]
            )
            + " |"
        )
    lines += [
        "",
        "### rate-limit compliance: paced vs unpaced against a policed "
        "web service",
        "",
        "| client | requests | server requests | over budget"
        " | retry-after waits | throughput | oracle-identical |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in report["rate_limit"]["rows"]:
        lines.append(
            "| "
            + " | ".join(
                [
                    "paced" if row["paced"] else "unpaced",
                    str(row["requests"]),
                    str(row["server_requests"]),
                    str(row["over_budget"]),
                    str(row["retry_after_waits"]),
                    f"{row['throughput_rps']:.0f} req/s",
                    "yes" if row["identical_to_oracle"] else "NO",
                ]
            )
            + " |"
        )
    compliant = report["rate_limit"]["compliant"]
    lines += [
        "",
        "Paced client over-budget requests: "
        f"**{'zero (compliant)' if compliant else 'NONZERO'}**",
        "",
        "### adapter throughput (sequential plan executions)",
        "",
        "| backend | requests | throughput |",
        "|---|---|---|",
    ]
    for row in report["throughput"]["rows"]:
        lines.append(
            "| "
            + " | ".join(
                [
                    row["backend"],
                    str(row["requests"]),
                    f"{row['throughput_rps']:.0f} req/s",
                ]
            )
            + " |"
        )
    scaling = report.get("batch_scaling")
    if scaling:
        lines += [
            "",
            "### SQLite batch scaling (one access_batch, keys = rows)",
            "",
            "| keys | rows | best time |",
            "|---|---|---|",
        ]
        for row in scaling["rows"]:
            lines.append(
                f"| {row['keys']} | {row['rows']} "
                f"| {row['seconds'] * 1e3:.1f} ms |"
            )
        lines += [
            "",
            f"Time ratio largest/smallest: **{scaling['ratio']:.1f}**",
        ]
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path", nargs="?", default="bench.json",
        help="pytest-benchmark JSON file",
    )
    parser.add_argument(
        "--chase-json", metavar="PATH",
        help="render a bench_chase.py comparison report instead",
    )
    parser.add_argument(
        "--search-json", metavar="PATH",
        help="render a bench_search.py comparison report instead",
    )
    parser.add_argument(
        "--exec-json", metavar="PATH",
        help="render a bench_execution.py comparison report instead",
    )
    parser.add_argument(
        "--cost-json", metavar="PATH",
        help="render a bench_cost.py calibration/pruning report instead",
    )
    parser.add_argument(
        "--faults-json", metavar="PATH",
        help="render a bench_faults.py fault/failover report instead",
    )
    parser.add_argument(
        "--service-json", metavar="PATH",
        help="render a bench_service.py concurrency report instead",
    )
    parser.add_argument(
        "--parallel-json", metavar="PATH",
        help="render a bench_parallel.py process-tier report instead",
    )
    parser.add_argument(
        "--chaos-json", metavar="PATH",
        help="render a bench_chaos.py chaos/hedging report instead",
    )
    parser.add_argument(
        "--adapters-json", metavar="PATH",
        help="render a bench_adapters.py backend-differential report instead",
    )
    args = parser.parse_args()
    if args.adapters_json:
        with open(args.adapters_json) as handle:
            print(render_adapters(json.load(handle)))
        return 0
    if args.chaos_json:
        with open(args.chaos_json) as handle:
            print(render_chaos(json.load(handle)))
        return 0
    if args.parallel_json:
        with open(args.parallel_json) as handle:
            print(render_parallel(json.load(handle)))
        return 0
    if args.service_json:
        with open(args.service_json) as handle:
            print(render_service(json.load(handle)))
        return 0
    if args.faults_json:
        with open(args.faults_json) as handle:
            print(render_faults(json.load(handle)))
        return 0
    if args.chase_json:
        with open(args.chase_json) as handle:
            print(render_chase(json.load(handle)))
        return 0
    if args.search_json:
        with open(args.search_json) as handle:
            print(render_search(json.load(handle)))
        return 0
    if args.cost_json:
        with open(args.cost_json) as handle:
            print(render_cost(json.load(handle)))
        return 0
    if args.exec_json:
        with open(args.exec_json) as handle:
            print(render_exec(json.load(handle)))
        return 0
    print(render(load(args.path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
