"""The four served-query workloads: seeded inputs and the system set-up.

Every workload serves conjunctive queries through ``QueryService`` with
two service workers.  The seed decides the instance data and the order
of the request stream; the shape of each instance (how many rows, how
many keys each access sees) is fixed, so a metric's spread across seeds
is noise rather than a different amount of work.

* ``hot_small`` -- many users, few distinct queries: five CQs over a
  small bibliography instance, warm plan cache, a shared access cache
  holding the whole working set, open-loop arrivals.  Fixed per-request
  overhead dominates (admission, plan-cache lookup, interpreter
  dispatch, cache hits).
* ``cold_plan`` -- 256 distinct CQs over Example 5's redundant sources;
  the plan cache is emptied before every pass over them, so every
  request runs Algorithm 1 (chase + domination search).
* ``rowheavy_sqlite`` -- three row-heavy CQs over SQLite on the process
  tier: plan IR shipping, the interpreter's joins and SQLite I/O.  No
  access cache (the process tier has none).
* ``remote_http`` -- path-view lookups over the HTTP adapter and a stub
  server with a fixed round-trip latency and small pages, with a retry
  policy set: waiting on round trips dominates.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import product
from typing import Callable, Dict, List, Optional, Tuple

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec.cache import AccessCache
from repro.exec.resilience import RetryPolicy
from repro.logic.queries import ConjunctiveQuery, cq
from repro.planner.plan_cache import PlanCache
from repro.scenarios import path_views, redundant_sources, webservices
from repro.service import ProcessWorkerPool, QueryService
from repro.sources.http import HTTPSource, StubTransport
from repro.sources.sqlite import SQLiteSource

from spans import TracedCache, TracedPlanCache, TracedSource, Tracer

SERVICE_WORKERS = 2
PROCESS_WORKERS = 2
#: Admission queue of the open-loop workload: eight seconds of arrivals.
#: The default (64, a quarter second at 250 req/s) sheds requests when
#: the host stalls the process for a moment, and a shed request is a
#: failed one; the workload measures per-request overhead, not overload.
OPEN_LOOP_MAX_QUEUE = 2048


# ------------------------------------------------------------------ queries
def _article(*rest):
    return [("Articles", ["?d", "?t", "?v"])] + list(rest)


#: Bibliography CQs over ``webservices()``; all answerable by the
#: Venues -> VenueListing -> Articles (-> AuthorOf) chain.
BIBLIO_QUERIES = {
    "bib": cq(["?t", "?a"], _article(("AuthorOf", ["?d", "?a"])), name="bib"),
    "authors": cq(
        ["?d", "?a"], _article(("AuthorOf", ["?d", "?a"])), name="authors"
    ),
    "listing": cq(
        ["?v", "?d"], _article(("VenueListing", ["?v", "?d"])), name="listing"
    ),
    "titles": cq(["?t"], _article(), name="titles"),
    "title_venue": cq(["?t", "?v"], _article(), name="title_venue"),
    "venues": cq(["?v"], [("Venues", ["?v"])], name="venues"),
}


def redundant_source_queries(sources: int) -> List[ConjunctiveQuery]:
    """Every head subset x every subset of ``Udirect_i`` atoms (Example 5).

    The ``Udirect_i`` atoms are implied by ``Profinfo`` through the
    constraints, so every query is answerable and all of them have the
    same answers up to projection -- but each is a new planning problem.
    """
    head_vars = ["?e", "?o", "?l"]
    queries = []
    for heads, atoms in product(
        product((False, True), repeat=len(head_vars)),
        product((False, True), repeat=sources),
    ):
        head = [v for v, keep in zip(head_vars, heads) if keep]
        body = [("Profinfo", ["?e", "?o", "?l"])] + [
            (f"Udirect{i + 1}", ["?e", "?l"]) for i, keep in enumerate(atoms) if keep
        ]
        tag = "".join("1" if k else "0" for k in heads + atoms)
        queries.append(cq(head, body, name=f"q{tag}"))
    return queries


def path_queries(length: int) -> List[ConjunctiveQuery]:
    """Path prefixes of 1..length hops over ``path_views`` (start, end)."""
    queries = []
    for hops in range(1, length + 1):
        variables = [f"?x{i}" for i in range(hops + 1)]
        body = [("Entry", [variables[0]])] + [
            (f"Hop{i}", [variables[i - 1], variables[i]])
            for i in range(1, hops + 1)
        ]
        queries.append(cq([variables[0], variables[-1]], body, name=f"path{hops}"))
    return queries


def path_instance(length: int, entries: int, fanout: int, seed: int) -> Instance:
    """A hop forest of fixed shape with seeded labels and dead ends.

    Every entry has ``fanout`` children; below that, exactly a quarter
    of each level's nodes (chosen by the seed) dead-end and the rest
    have ``fanout`` children.  Key counts per level -- and so access
    counts per request -- do not depend on the seed.
    """
    rng = random.Random(seed)
    instance = Instance()
    frontier = [f"n0_{i}_{rng.getrandbits(24):06x}" for i in range(entries)]
    for node in frontier:
        instance.add("Entry", (node,))
    for level in range(1, length + 1):
        dead = set(rng.sample(range(len(frontier)), len(frontier) // 4)) if level > 1 else set()
        children = []
        for index, node in enumerate(frontier):
            if index in dead:
                continue
            for _ in range(fanout):
                child = f"n{level}_{len(children)}_{rng.getrandbits(24):06x}"
                instance.add(f"Hop{level}", (node, child))
                children.append(child)
        frontier = children
    return instance


# ------------------------------------------------------------------ oracle
def rows_digest(rows) -> str:
    """BLAKE2b of the sorted row texts: the answer's identity."""
    digest = blake2b(digest_size=16)
    for text in sorted(repr(tuple(row)) for row in rows):
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class Inputs:
    """The queries the clients send, with the oracle's answers."""

    schema: object
    queries: List[ConjunctiveQuery]
    #: Exact answers over the in-memory instance, one per query.
    oracle: List[frozenset]
    digests: List[str]


def make_inputs(schema, instance: Instance, queries) -> Inputs:
    """Evaluate every query over the in-memory instance (the oracle)."""
    oracle = [frozenset(instance.evaluate(query)) for query in queries]
    return Inputs(schema, list(queries), oracle, [rows_digest(o) for o in oracle])


# ------------------------------------------------------------------ rigs
@dataclass
class Rig:
    """One set-up system under test: the service and its parts."""

    service: QueryService
    plan_cache: PlanCache
    pool: Optional[ProcessWorkerPool] = None
    http: Optional[HTTPSource] = None
    closers: List[Callable[[], None]] = field(default_factory=list)

    @property
    def process_tier(self) -> bool:
        return self.pool is not None

    def counters(self) -> Dict[str, float]:
        """Cumulative counters the per-layer metrics difference."""
        health = self.service.health()
        plan_cache = health.plan_cache or {}
        out = {
            "planned": health.planned,
            "shed": health.shed,
            "rejected": health.rejected,
            "restarts": (health.worker_tier or {}).get("restarts", 0),
            "plan_hits": plan_cache.get("hits", 0),
            "plan_misses": plan_cache.get("misses", 0),
        }
        cache = health.cache or {}
        for key in ("hits", "misses", "evictions", "stampedes_collapsed"):
            out[f"cache_{key}"] = cache.get(key, 0)
        if self.http is not None:
            out["http_requests"] = self.http.transport.counters()["requests"]
            out["retry_after_waits"] = self.http.retry_after_waits
        return out

    def close(self) -> None:
        """Stop the service (and its worker processes) and wait for them."""
        if not self.service.shutdown(drain=True, timeout=60):
            raise RuntimeError("service workers did not stop within 60 s")
        for close in self.closers:
            close()


def _plan_cache(tracer: Optional[Tracer], **kwargs) -> PlanCache:
    return TracedPlanCache(tracer, **kwargs) if tracer else PlanCache(**kwargs)


def _warm(rig: Rig, queries, rounds: int) -> Rig:
    """Plan every query, then serve the mix ``rounds`` times concurrently.

    A failed warm-up stops the rig before the error propagates.
    """
    try:
        for query in queries:
            rig.service.plan_for(query)
        for _ in range(rounds):
            tickets = [rig.service.submit_query(query) for query in queries]
            for ticket in tickets:
                response = ticket.result(timeout=120)
                if not response.complete:
                    raise RuntimeError(f"warm-up request failed: {response.describe()}")
    except BaseException:
        rig.close()
        raise
    return rig


# ------------------------------------------------------------------ workloads
@dataclass
class Workload:
    """A named traffic mix with its seeded data and its set-up."""

    name: str
    loop: str  # "open" or "closed"
    #: One shuffled pass of the stream, as query indices, given the
    #: number of queries.
    mix: Callable[[int], List[int]]
    #: smoke -> the queries the clients send
    queries: Callable[[bool], List[ConjunctiveQuery]]
    #: (seed, smoke) -> (schema, instance)
    data: Callable[[int, bool], Tuple]
    #: (schema, instance, queries, smoke, tracer) -> a started, warm rig
    serve: Callable[..., Rig]
    params: Callable[[bool], Dict]
    #: Open loop only: requests per second offered.
    rate: float = 0.0
    #: Empty the plan cache before every pass (cold planning).
    cold_passes: bool = False

    def inputs(self, seed: int, smoke: bool) -> Inputs:
        """The queries and instance with their oracle answers."""
        return make_inputs(*self.data(seed, smoke), self.queries(smoke))

    def build(self, seed: int, smoke: bool, tracer: Optional[Tracer], queries) -> Rig:
        """Generate the instance, load the backend, start and warm the service."""
        schema, instance = self.data(seed, smoke)
        return self.serve(schema, instance, queries, smoke, tracer)


def _source(source, tracer):
    return TracedSource(source, tracer) if tracer else source


def _hot_size(smoke):
    return {"venues": 2, "articles_per_venue": 4} if smoke else {"venues": 4, "articles_per_venue": 8}


HOT_QUERIES = ("bib", "listing", "titles", "title_venue", "venues")


def _hot_data(seed, smoke):
    scenario = webservices(**_hot_size(smoke))
    return scenario.schema, scenario.instance(seed)


def _hot_serve(schema, instance, queries, smoke, tracer):
    plan_cache = _plan_cache(tracer)
    service = QueryService(
        _source(InMemorySource(schema, instance), tracer),
        workers=SERVICE_WORKERS,
        max_queue=OPEN_LOOP_MAX_QUEUE,
        cache=TracedCache(tracer, maxsize=4096) if tracer else AccessCache(maxsize=4096),
        plan_cache=plan_cache,
    ).start()
    return _warm(Rig(service, plan_cache), queries, rounds=1)


def _cold_sources(smoke):
    return 3 if smoke else 5


def _cold_data(seed, smoke):
    scenario = redundant_sources(_cold_sources(smoke))
    return scenario.schema, scenario.instance(seed)


def _cold_serve(schema, instance, queries, smoke, tracer):
    plan_cache = _plan_cache(tracer, capacity=1024)
    service = QueryService(
        _source(InMemorySource(schema, instance), tracer),
        workers=SERVICE_WORKERS,
        plan_cache=plan_cache,
    ).start()
    # Warm the interpreter and search code paths on a query outside the
    # measured set, then forget its plan.
    rig = _warm(
        Rig(service, plan_cache),
        [cq(["?e", "?l"], [("Udirect1", ["?e", "?l"])], name="warm")],
        rounds=1,
    )
    plan_cache.clear()
    return rig


def _rowheavy_size(smoke):
    return {"venues": 2, "articles_per_venue": 8} if smoke else {"venues": 6, "articles_per_venue": 40}


ROWHEAVY_QUERIES = ("titles", "authors", "bib")


def _rowheavy_data(seed, smoke):
    scenario = webservices(**_rowheavy_size(smoke))
    return scenario.schema, scenario.instance(seed)


def _rowheavy_serve(schema, instance, queries, smoke, tracer):
    source = SQLiteSource(schema, instance)
    pool = ProcessWorkerPool.for_source(source, workers=PROCESS_WORKERS)
    plan_cache = _plan_cache(tracer)
    service = QueryService(
        source, workers=SERVICE_WORKERS, worker_pool=pool, plan_cache=plan_cache
    ).start()
    # Two concurrent rounds start both worker processes (the pool spawns
    # on demand) and run every query on the tier before timing.
    return _warm(
        Rig(service, plan_cache, pool=pool, closers=[source.close]),
        queries * 2,
        rounds=2,
    )


def _remote_size(smoke):
    if smoke:
        return {"length": 2, "entries": 4, "fanout": 2, "latency": 0.001, "page_size": 2}
    return {"length": 3, "entries": 8, "fanout": 3, "latency": 0.004, "page_size": 2}


def _remote_data(seed, smoke):
    size = _remote_size(smoke)
    schema = path_views(length=size["length"]).schema
    return schema, path_instance(size["length"], size["entries"], size["fanout"], seed)


def _remote_serve(schema, instance, queries, smoke, tracer):
    size = _remote_size(smoke)
    transport = StubTransport(
        schema,
        instance,
        latency=size["latency"],
        page_size=size["page_size"],
        sleep=time.sleep,
    )
    source = HTTPSource(transport)
    plan_cache = _plan_cache(tracer)
    service = QueryService(
        _source(source, tracer),
        workers=SERVICE_WORKERS,
        retry=RetryPolicy(max_attempts=3, base_delay=0.005, max_delay=0.05),
        plan_cache=plan_cache,
    ).start()
    return _warm(Rig(service, plan_cache, http=source), queries, rounds=1)


WORKLOADS: Dict[str, Workload] = {
    "hot_small": Workload(
        name="hot_small",
        loop="open",
        # bib, the heaviest query, is one request in nine: the 95th
        # percentile then sits mid-way into its latencies, not in their tail.
        mix=lambda n: [0] * 20 + [q for q in range(1, n) for _ in range(40)],
        queries=lambda smoke: [BIBLIO_QUERIES[name] for name in HOT_QUERIES],
        data=_hot_data,
        serve=_hot_serve,
        params=lambda smoke: {
            "scenario": "webservices", **_hot_size(smoke), "queries": list(HOT_QUERIES),
            "cache": "AccessCache(maxsize=4096), warm", "plan_cache": "warm",
            "max_queue": OPEN_LOOP_MAX_QUEUE,
        },
        rate=250.0,
    ),
    "cold_plan": Workload(
        name="cold_plan",
        loop="closed",
        mix=lambda n: list(range(n)),
        queries=lambda smoke: redundant_source_queries(_cold_sources(smoke)),
        data=_cold_data,
        serve=_cold_serve,
        params=lambda smoke: {
            "scenario": f"redundant_sources({_cold_sources(smoke)})",
            "queries": 8 * 2 ** _cold_sources(smoke),
            "plan_cache": "emptied before every pass",
        },
        cold_passes=True,
    ),
    "rowheavy_sqlite": Workload(
        name="rowheavy_sqlite",
        loop="closed",
        mix=lambda n: list(range(n)) * 16,
        queries=lambda smoke: [BIBLIO_QUERIES[name] for name in ROWHEAVY_QUERIES],
        data=_rowheavy_data,
        serve=_rowheavy_serve,
        params=lambda smoke: {
            "scenario": "webservices", **_rowheavy_size(smoke),
            "queries": list(ROWHEAVY_QUERIES), "backend": "SQLiteSource",
            "tier": f"ProcessWorkerPool(workers={PROCESS_WORKERS}, spawn)",
            "plan_cache": "warm",
        },
    ),
    "remote_http": Workload(
        name="remote_http",
        loop="closed",
        mix=lambda n: list(range(n)) * 32,
        queries=lambda smoke: path_queries(_remote_size(smoke)["length"]),
        data=_remote_data,
        serve=_remote_serve,
        params=lambda smoke: {
            "scenario": "path_views", **_remote_size(smoke),
            "backend": "HTTPSource(StubTransport)",
            "retry": "RetryPolicy(max_attempts=3)", "plan_cache": "warm",
        },
    ),
}
