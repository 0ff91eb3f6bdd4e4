"""Differential: worker-tier answers are byte-identical to in-process.

The strongest guarantee the process tier can offer is that routing a
request through spawned workers is *unobservable* in the results:
identical answer bytes for complete answers, identical sorted prefixes
for budget-truncated partial answers, and identical deterministic
fault outcomes (the fault schedule keys on (seed, method, inputs), so
a rehydrated source in a worker draws the same faults the parent
would).  spawn and fork must also agree with each other -- any
divergence means hidden state leaked across the boundary.
"""

import pytest

from repro.data.source import InMemorySource
from repro.exec.budget import ResourceBudget
from repro.exec.resilience import RetryPolicy
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1, example5, referential_chain
from repro.service import ProcessWorkerPool, QueryService, ThreadWorkerPool

SCENARIOS = [
    ("example1", example1, 3),
    ("example5", example5, 4),
    ("chain", lambda: referential_chain(3), 6),
]


def planned(factory, budget):
    scenario = factory()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    )
    assert result.found, scenario.name
    return scenario, result.best_plan


def canonical(table):
    return (table.attributes, tuple(sorted(map(repr, table.rows))))


def serve_once(source, plan, worker_pool=None, **kwargs):
    with QueryService(source, workers=1, worker_pool=worker_pool) as svc:
        return svc.serve(plan, timeout=300, **kwargs)


@pytest.mark.parametrize("name,factory,budget", SCENARIOS)
def test_all_tiers_agree_on_scenarios(name, factory, budget):
    scenario, plan = planned(factory, budget)
    instance = scenario.instance(0)
    reference = canonical(
        plan.execute(InMemorySource(scenario.schema, instance))
    )
    answers = {}
    for tier, make_pool in [
        ("none", lambda s: None),
        ("thread", lambda s: ThreadWorkerPool(workers=2)),
        (
            "spawn",
            lambda s: ProcessWorkerPool.for_source(
                s, workers=2, start_method="spawn"
            ),
        ),
        (
            "fork",
            lambda s: ProcessWorkerPool.for_source(
                s, workers=2, start_method="fork"
            ),
        ),
    ]:
        source = InMemorySource(scenario.schema, instance)
        response = serve_once(source, plan, worker_pool=make_pool(source))
        assert response.complete, (name, tier, response.describe())
        answers[tier] = canonical(response.table)
    assert all(a == reference for a in answers.values()), (name, answers)


def test_budget_truncation_prefix_identical_across_tiers():
    scenario, plan = planned(example1, 3)
    instance = scenario.instance(0)
    reference = sorted(
        plan.execute(InMemorySource(scenario.schema, instance)).rows
    )
    assert len(reference) > 2, "need a multi-row answer to truncate"
    keep = len(reference) // 2
    prefixes = {}
    for tier in ("none", "spawn", "fork"):
        source = InMemorySource(scenario.schema, instance)
        pool = (
            None
            if tier == "none"
            else ProcessWorkerPool.for_source(
                source, workers=1, start_method=tier
            )
        )
        response = serve_once(
            source,
            plan,
            worker_pool=pool,
            budget=ResourceBudget(max_result_rows=keep),
        )
        assert response.partial, (tier, response.describe())
        assert response.truncated_rows == len(reference) - keep
        prefixes[tier] = sorted(response.table.rows)
    assert prefixes["spawn"] == prefixes["fork"] == reference[:keep]


def test_deterministic_faults_identical_across_tiers():
    """The same fault schedule fires in the worker as in the parent.

    Faults key on (seed, method, inputs), not call order, so the
    rehydrated per-worker fault wrapper reproduces the parent's
    behaviour exactly: with retries enabled, every tier converges to
    the same complete answer.
    """
    scenario, plan = planned(example1, 3)
    instance = scenario.instance(0)
    reference = canonical(
        plan.execute(InMemorySource(scenario.schema, instance))
    )
    for tier in ("none", "spawn", "fork"):
        source = FaultInjectingSource(
            InMemorySource(scenario.schema, instance),
            FaultPolicy.transient(0.3, seed=11),
        )
        pool = (
            None
            if tier == "none"
            else ProcessWorkerPool.for_source(
                source, workers=1, start_method=tier
            )
        )
        service = QueryService(
            source,
            workers=1,
            worker_pool=pool,
            retry=RetryPolicy(max_attempts=6, base_delay=0.001),
        )
        with service:
            response = service.serve(plan, timeout=300)
        assert response.complete, (tier, response.describe())
        assert canonical(response.table) == reference, tier
