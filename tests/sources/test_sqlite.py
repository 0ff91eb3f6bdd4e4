"""SQLiteSource: typed cells, reconnect lifecycle, epochs, batching."""

import sqlite3
import time

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import AccessViolation, SourceUnavailable
from repro.scenarios import example1
from repro.schema.core import SchemaBuilder
from repro.sources import SQLiteSource
from repro.sources.sqlite import _FALLBACK_PARAM_LIMIT, _param_limit

_NO_SLEEP = lambda _seconds: None  # noqa: E731


def typed_schema():
    return (
        SchemaBuilder("typed")
        .relation("T", 2)
        .access("mt_T", "T", inputs=[0], cost=1.0)
        .access("mt_all", "T", inputs=[], cost=1.0)
        .build()
    )


def typed_instance():
    # 1, 1.0, True and "1" are distinct Constants; SQLite affinity
    # would collapse them -- the JSON cells must not.
    return Instance(
        {"T": [(1, "int"), (1.0, "float"), (True, "bool"), ("1", "str")]}
    )


class TestTypedRoundTrip:
    def test_mixed_types_survive_byte_for_byte(self):
        schema, instance = typed_schema(), typed_instance()
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        mem = InMemorySource(schema, instance)
        assert sql.access("mt_all") == mem.access("mt_all")
        for key in (1, 1.0, True, "1"):
            assert sql.access("mt_T", (key,)) == mem.access("mt_T", (key,))

    def test_scenario_parity_on_every_method(self):
        scenario = example1(professors=10, directory_extra=5)
        instance = scenario.instance(0)
        sql = SQLiteSource(scenario.schema, instance, sleep=_NO_SLEEP)
        mem = InMemorySource(scenario.schema, instance)
        assert sql.access("mt_udir") == mem.access("mt_udir")
        assert sql.access("mt_prof", ("e1",)) == mem.access(
            "mt_prof", ("e1",)
        )

    def test_wrong_input_count_is_typed(self):
        sql = SQLiteSource(typed_schema(), typed_instance(), sleep=_NO_SLEEP)
        with pytest.raises(AccessViolation):
            sql.access("mt_T", ())


class TestReconnectLifecycle:
    def test_severed_connection_reconnects_and_answers_identically(self):
        schema, instance = typed_schema(), typed_instance()
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        reference = sql.access("mt_all")
        sql.sever_connection()
        assert sql.access("mt_all") == reference
        assert sql.reconnects == 1

    def test_backoff_is_capped_exponential(self):
        sleeps = []
        sql = SQLiteSource(
            typed_schema(), typed_instance(),
            backoff=0.01, max_backoff=0.03, sleep=sleeps.append,
        )
        sql.sever_connection()
        sql.access("mt_all")
        assert sleeps == [pytest.approx(0.01)]

    def test_exhausted_reconnects_surface_as_source_unavailable(self):
        sql = SQLiteSource(
            typed_schema(), typed_instance(),
            max_reconnects=0, sleep=_NO_SLEEP,
        )
        sql.sever_connection()
        with pytest.raises(SourceUnavailable):
            sql.access("mt_all")

    def test_drop_every_severs_deterministically(self):
        sql = SQLiteSource(
            typed_schema(), typed_instance(),
            drop_every=2, sleep=_NO_SLEEP,
        )
        reference = InMemorySource(typed_schema(), typed_instance())
        for i in range(6):
            assert sql.access("mt_all") == reference.access("mt_all")
        assert sql._statements == 6
        assert sql.reconnects == 3  # statements 2, 4, 6 hit a dead conn


class TestEpochs:
    def test_reconnect_keeps_the_epoch(self):
        sql = SQLiteSource(typed_schema(), typed_instance(), sleep=_NO_SLEEP)
        before = sql.epoch()
        sql.sever_connection()
        sql.access("mt_all")
        assert sql.epoch() == before

    def test_mutation_bumps_the_epoch_and_reloads_the_snapshot(self):
        schema, instance = typed_schema(), typed_instance()
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        before = sql.epoch()
        stale = sql.access("mt_T", ("fresh",))
        assert stale == frozenset()
        instance.add("T", ("fresh", "row"))
        assert sql.epoch() > before
        assert sql.access("mt_T", ("fresh",)) == InMemorySource(
            schema, instance
        ).access("mt_T", ("fresh",))


class TestBatching:
    def test_batch_matches_per_key_answers_and_metering(self):
        scenario = example1(professors=8, directory_extra=0)
        instance = scenario.instance(0)
        sql = SQLiteSource(scenario.schema, instance, sleep=_NO_SLEEP)
        mem = InMemorySource(scenario.schema, instance)
        keys = [("e0",), ("e1",), ("e7",), ("nope",)]
        batched = sql.access_batch("mt_prof", keys)
        assert sql.batched_calls == 1
        # One logical access metered per key, same as the per-key loop.
        assert sql.total_invocations == len(keys)
        assert sql.invocations_of("mt_prof") == len(keys)
        for key in keys:
            assert batched[sql._check_method("mt_prof", key)[1]] == (
                mem.access("mt_prof", key)
            )

    def test_batch_uses_one_statement_for_single_input_methods(self):
        sql = SQLiteSource(typed_schema(), typed_instance(), sleep=_NO_SLEEP)
        before = sql._statements
        sql.access_batch("mt_T", [(1,), (True,), ("1",)])
        assert sql._statements == before + 1

    def test_batch_parity_on_python_equal_keys(self):
        schema = typed_schema()
        instance = Instance(
            {
                "T": [
                    (1, "int"), (1, "int again"), (1.0, "float"),
                    (True, "bool"), ("1", "str"), ("1", "str again"),
                    (2, "other"),
                ]
            }
        )
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        per_key = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        mem = InMemorySource(schema, instance)
        keys = [(1,), (1.0,), (True,), ("1",), ("missing",)]
        batched = sql.access_batch("mt_T", keys)
        # One logical access metered per key, duplicates included.
        assert sql.total_invocations == len(keys)
        assert [rec.inputs for rec in sql.log] == [
            sql._check_method("mt_T", key)[1] for key in keys
        ]
        for key in keys:
            answer = batched[sql._check_method("mt_T", key)[1]]
            assert answer == per_key.access("mt_T", key)
            assert answer == mem.access("mt_T", key)
        # 1, 1.0 and True are one key to the oracle: four rows each.
        assert len(batched[sql._check_method("mt_T", (1,))[1]]) == 4
        assert batched[sql._check_method("mt_T", ("missing",))[1]] == (
            frozenset()
        )

    def test_batch_time_is_linear_in_keys_and_rows(self):
        n = 4000
        schema = (
            SchemaBuilder("wide")
            .relation("R", 2)
            .access("mt_R", "R", inputs=[0], cost=1.0)
            .build()
        )
        instance = Instance({"R": [(f"k{i}", i) for i in range(n)]})
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        keys = [(f"k{i}",) for i in range(n)]
        started = time.perf_counter()
        batched = sql.access_batch("mt_R", keys)
        elapsed = time.perf_counter() - started
        # Matching every key against every row took seconds here.
        assert elapsed < 1.0, f"{n} x {n} batch took {elapsed:.2f} s"
        assert len(batched) == n
        key = sql._check_method("mt_R", ("k17",))[1]
        assert batched[key] == sql.access("mt_R", ("k17",))

    @pytest.mark.skipif(
        not hasattr(sqlite3.Connection, "setlimit"),
        reason="Connection.setlimit needs Python 3.11+",
    )
    def test_batch_over_the_parameter_limit_is_chunked(self):
        scenario = example1(professors=20, directory_extra=0)
        instance = scenario.instance(0)
        sql = SQLiteSource(scenario.schema, instance, sleep=_NO_SLEEP)
        sql._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 10)
        keys = [(f"e{i}",) for i in range(20)]
        before = sql._statements
        batched = sql.access_batch("mt_prof", keys)
        # Twenty one-spelling keys in chunks of ten: two statements, and
        # no "too many SQL variables" mistaken for a dead connection.
        assert sql._statements == before + 2
        assert sql.reconnects == 0
        for key in keys:
            assert batched[sql._check_method("mt_prof", key)[1]] == (
                sql.access("mt_prof", key)
            )
        assert sql.reconnects == 0

    def test_parameter_limit_falls_back_without_getlimit(self):
        assert _param_limit(object()) == _FALLBACK_PARAM_LIMIT
        closed = sqlite3.connect(":memory:")
        closed.close()
        assert _param_limit(closed) == _FALLBACK_PARAM_LIMIT
