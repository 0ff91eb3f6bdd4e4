"""The served-query benchmark: QueryService under four seeded workloads.

Run from the repository root::

    python3 servebench/run.py --workload hot_small --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --workload cold_plan --seed 1 --seconds 10 --trace 1
    python3 servebench/run.py --all --seed 1 --seconds 10
    python3 servebench/run.py --self-test

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
(set-up is repeated and its median reported); ``--trace 1`` reports the
per-layer metrics: the window is split into alternating untraced and
traced quarters, so the tracing overhead is measured in the same run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run envelope
(code identity, machine, versions, workload parameters) is printed on
the line before it.

Seeds: tune with any seed; check a claimed gain again on the held-out
seed ``HELD_OUT_SEED`` (20261017), which is never used while tuning.

Exit codes: 0 when every answer matched the oracle, 1 on a wrong
answer, 2 when the program under test (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
from hashlib import blake2b
from importlib import metadata
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

HELD_OUT_SEED = 20261017
#: Set-ups per untraced run (setup_s is their median): at least five,
#: then more while they have taken under a second, at most 25.
SETUP_REPEATS = (5, 25)
SETUP_BUDGET_S = 1.0
#: Algorithm 1 re-runs per traced run for the planner/chase statistics.
SEARCH_REPLAYS = 16


def _have_program() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


if _have_program():
    sys.path.insert(0, str(SRC))
    from drive import Requester, Stream, drive  # noqa: E402
    from metrics import (  # noqa: E402
        end_to_end,
        ir_round_trip_ms,
        peak_rss_mb,
        per_layer,
        replay_searches,
    )
    from spans import Tracer  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402


# ------------------------------------------------------------------ envelope
def envelope(workload, seed: int, seconds: float, trace: int, smoke: bool, inputs) -> dict:
    """Where and on what the numbers were measured (informational)."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    lines, digest = 0, blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(data)
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    oracle = blake2b("".join(inputs.digests).encode(), digest_size=16).hexdigest()
    return {
        "git_sha": sha,
        "src_digest": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sqlite": sqlite3.sqlite_version,
        "workload": workload.name,
        "loop": workload.loop if workload.loop == "closed" else f"open @ {workload.rate:g} req/s",
        "params": workload.params(smoke),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "queries": len(inputs.queries),
        "oracle_digest": oracle,
    }


# ------------------------------------------------------------------ one run
class RunResult:
    """The outcome of one run: the JSON fields plus check bookkeeping."""

    def __init__(self, records, metrics, envelope_data) -> None:
        self.metrics = metrics
        self.envelope = envelope_data
        self.attempted = len(records)
        self.failed = sum(1 for r in records if not r.complete)
        self.checked = sum(1 for r in records if r.complete)
        self.mismatches = [r for r in records if r.mismatch]
        self.errors = [r.error for r in records if r.error][:5]

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.mismatches

    def as_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            },
            sort_keys=False,
        )


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        corrupt_oracle: bool = False) -> RunResult:
    """Set up one workload, drive it for ``seconds`` and measure it."""
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, smoke)
    if corrupt_oracle:  # self-test: prove a wrong answer fails the run
        inputs.oracle[0] = frozenset()
    tracer = Tracer() if trace else None
    setup_times = []
    rig = None
    least, most = (1, 1) if trace else SETUP_REPEATS
    while len(setup_times) < least or (
        len(setup_times) < most and sum(setup_times) < SETUP_BUDGET_S
    ):
        if rig is not None:
            rig.close()
        started = perf_counter()
        rig = workload.build(seed, smoke, tracer, inputs.queries)
        setup_times.append(perf_counter() - started)
    try:
        requester = Requester(rig, inputs, tracer)
        stream = Stream(
            seed,
            workload.mix(len(inputs.queries)),
            on_pass=rig.plan_cache.clear if workload.cold_passes else None,
        )
        if trace:
            records, metrics = _measure_traced(workload, rig, requester, stream, inputs, seconds)
        else:
            records, elapsed = drive(workload, requester, stream, seconds, traced=False)
            if not records:
                raise RuntimeError(f"{name}: no request was sent in {seconds} s")
            metrics = end_to_end(
                records, elapsed, statistics.median(setup_times), peak_rss_mb()
            )
    finally:
        rig.close()
    return RunResult(
        records, metrics, envelope(workload, seed, seconds, int(trace), smoke, inputs)
    )


def _measure_traced(workload, rig, requester, stream, inputs, seconds):
    """Alternate untraced and traced quarters; return records and metrics."""
    untraced, traced, deltas = [], [], {}
    for quarter in range(4):
        is_traced = quarter % 2 == 1
        before = rig.counters()
        records, _ = drive(workload, requester, stream, seconds / 4, traced=is_traced)
        if not is_traced:
            untraced.extend(records)
            continue
        traced.extend(records)
        for key, value in rig.counters().items():
            deltas[key] = deltas.get(key, 0) + value - before.get(key, 0)
    # Algorithm 1's internal counters: re-run it on the distinct queries
    # the service searched (none when every plan came from the cache).
    searched = []
    if deltas["planned"]:
        for query in dict.fromkeys(record.query for record in traced):
            searched.append(inputs.queries[query])
    searches = replay_searches(inputs.schema, searched, SEARCH_REPLAYS)
    plans = [result.best_plan for _, result in searches] or [
        rig.service.plan_for(query) for query in inputs.queries
    ]
    metrics = per_layer(
        traced, untraced, deltas, searches, ir_round_trip_ms(plans),
        inputs.schema, rig.process_tier,
    )
    return untraced + traced, metrics


def report(result: RunResult, out=sys.stdout) -> None:
    """Human-readable lines, the envelope, then the JSON result line."""
    print(
        f"# {result.envelope['workload']} seed={result.envelope['seed']}: "
        f"{result.attempted} requests, {result.failed} not complete, "
        f"{result.checked} answers checked against the oracle, "
        f"{len(result.mismatches)} mismatches",
        file=out,
    )
    for error in result.errors:
        print(f"#   error: {error}", file=out)
    for name, (value, unit) in result.metrics.items():
        print(f"#   {name:42s} {value:14.4f} {unit}", file=out)
    print("envelope " + json.dumps(result.envelope, sort_keys=True), file=out)
    print(result.as_json(), file=out)
    out.flush()


# ------------------------------------------------------------------ self-test
def self_test() -> int:
    """Smoke-size runs of every workload in both modes, checked.

    Every metric ``BENCHMARK.json`` names must be emitted with its unit,
    every complete answer must have been checked, and a deliberately
    wrong oracle must make the run incorrect.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run(name, seed=1, seconds=1.0, trace=trace, smoke=True)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {n: unit for n, (_v, unit) in result.metrics.items()}
            label = f"{name} trace={int(trace)}"
            if emitted != expected:
                problems.append(
                    f"{label}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(expected) - set(emitted))}, "
                    f"extra {sorted(set(emitted) - set(expected))}, "
                    f"units {[n for n in expected if emitted.get(n, expected[n]) != expected[n]]}"
                )
            if not result.correct or result.checked == 0 or result.failed:
                problems.append(
                    f"{label}: correct={result.correct} checked={result.checked} "
                    f"failed={result.failed} errors={result.errors}"
                )
            json.loads(result.as_json())
            print(f"self-test {label}: {result.attempted} requests, "
                  f"{result.checked} checked", flush=True)
    wrong = run("hot_small", seed=1, seconds=0.5, trace=False, smoke=True, corrupt_oracle=True)
    if wrong.correct:
        problems.append("a wrong oracle did not fail the run: the answer check is not running")
    for problem in problems:
        print(f"self-test FAILED: {problem}", flush=True)
    if not problems:
        print("self-test OK", flush=True)
    return 1 if problems else 0


# ------------------------------------------------------------------ CLI
def stop_children(timeout: float = 30.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The worker pools join their processes when the service shuts down;
    this also ends any that a failed run left behind, and the resource
    tracker that spawn-started pools launch, which would otherwise
    outlive this process.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not _have_program():
        print(f"error: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.all:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} (or use --all)")
    correct = True
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        report(result)
        correct = correct and result.correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
