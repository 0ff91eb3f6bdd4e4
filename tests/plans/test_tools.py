"""Tests for plan tools: dead-code elimination, SQL, serialization."""

import json

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.logic.queries import cq
from repro.planner.search import SearchOptions, find_best_plan
from repro.plans.commands import (
    AccessCommand,
    MiddlewareCommand,
    identity_output_map,
)
from repro.plans.expressions import (
    Difference,
    EqConst,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
    Union,
)
from repro.plans.ir import ir_to_plan, plan_to_ir
from repro.plans.plan import Plan
from repro.plans.tools import (
    eliminate_dead_commands,
    to_sql,
)
from repro.scenarios import example1, example5
from repro.schema.core import SchemaBuilder
from repro.logic.terms import Constant


@pytest.fixture
def simple_source():
    schema = (
        SchemaBuilder("s")
        .relation("R", 2)
        .free_access("R")
        .build()
    )
    return schema, InMemorySource(
        schema, Instance({"R": [("a", "1"), ("b", "2")]})
    )


def scan_r(target="TR"):
    return AccessCommand(
        target, "mt_R", Singleton(), (), identity_output_map(("x", "y"))
    )


class TestDeadCommandElimination:
    def test_unused_middleware_removed(self, simple_source):
        schema, source = simple_source
        plan = Plan(
            (
                scan_r(),
                MiddlewareCommand("DEAD", Project(Scan("TR"), ("x",))),
                MiddlewareCommand("OUT", Scan("TR")),
            ),
            "OUT",
        )
        cleaned = eliminate_dead_commands(plan)
        assert len(cleaned.commands) == 2
        assert cleaned.run(source).rows == plan.run(source).rows

    def test_unused_access_removed(self, simple_source):
        schema, source = simple_source
        plan = Plan(
            (
                scan_r("TR"),
                scan_r("UNREAD"),
                MiddlewareCommand("OUT", Scan("TR")),
            ),
            "OUT",
        )
        cleaned = eliminate_dead_commands(plan)
        assert len(cleaned.access_commands) == 1
        source.reset_log()
        cleaned.run(source)
        assert source.total_invocations == 1

    def test_chained_dependencies_kept(self, simple_source):
        schema, source = simple_source
        plan = Plan(
            (
                scan_r(),
                MiddlewareCommand("MID", Project(Scan("TR"), ("x",))),
                MiddlewareCommand("OUT", Scan("MID")),
            ),
            "OUT",
        )
        cleaned = eliminate_dead_commands(plan)
        assert len(cleaned.commands) == 3

    def test_redefined_table_keeps_live_earlier_definition(
        self, simple_source
    ):
        """Regression: a redefined target's *earlier* definition must be
        kept when a command between the two definitions reads it.

        The old backwards walk tracked a seen-target set, so the first
        ``T`` below was dropped even though ``X := π[x](T)`` reads it --
        producing a plan that fails def-before-use validation.
        """
        schema, source = simple_source
        plan = Plan(
            (
                scan_r("TR"),
                MiddlewareCommand("T", Scan("TR")),
                MiddlewareCommand("X", Project(Scan("T"), ("x",))),
                MiddlewareCommand(
                    "T",
                    Select(Scan("TR"), (EqConst("x", Constant("a")),)),
                ),
                MiddlewareCommand("OUT", Join(Scan("X"), Scan("T"))),
            ),
            "OUT",
        )
        cleaned = eliminate_dead_commands(plan)
        # Every command is live: nothing may be dropped.
        assert len(cleaned.commands) == len(plan.commands)
        assert cleaned.run(source).rows == plan.run(source).rows

    def test_redefined_table_drops_shadowed_definition(self, simple_source):
        """A redefinition with no reader in between shadows the earlier
        definition, which is then dead and removed."""
        schema, source = simple_source
        plan = Plan(
            (
                scan_r("TR"),
                MiddlewareCommand("T", Project(Scan("TR"), ("x",))),
                MiddlewareCommand("T", Scan("TR")),
                MiddlewareCommand("OUT", Scan("T")),
            ),
            "OUT",
        )
        cleaned = eliminate_dead_commands(plan)
        assert len(cleaned.commands) == 3
        assert cleaned.run(source).rows == plan.run(source).rows

    def test_self_reading_redefinition_kept(self, simple_source):
        """``T := σ(T)`` reads its own target: both definitions stay."""
        schema, source = simple_source
        plan = Plan(
            (
                scan_r("TR"),
                MiddlewareCommand("T", Scan("TR")),
                MiddlewareCommand(
                    "T",
                    Select(Scan("T"), (EqConst("x", Constant("a")),)),
                ),
                MiddlewareCommand("OUT", Scan("T")),
            ),
            "OUT",
        )
        cleaned = eliminate_dead_commands(plan)
        assert len(cleaned.commands) == 4
        assert cleaned.run(source).rows == plan.run(source).rows

    def test_search_plans_are_already_lean(self):
        scenario = example1()
        plan = find_best_plan(scenario.schema, scenario.query).best_plan
        cleaned = eliminate_dead_commands(plan)
        # The generator produces no dead commands for linear proofs.
        assert len(cleaned.commands) == len(plan.commands)

    def test_semantics_preserved_on_real_plan(self):
        scenario = example5(sources=3, professors=5, noise_per_source=5)
        plan = find_best_plan(
            scenario.schema, scenario.query, SearchOptions(max_accesses=4)
        ).best_plan
        cleaned = eliminate_dead_commands(plan)
        instance = scenario.instance(0)
        a = plan.run(InMemorySource(scenario.schema, instance))
        b = cleaned.run(InMemorySource(scenario.schema, instance))
        assert a.rows == b.rows


class TestSQLRendering:
    def test_mentions_every_temp_table(self):
        scenario = example1()
        plan = find_best_plan(scenario.schema, scenario.query).best_plan
        sql = to_sql(plan)
        for command in plan.commands:
            assert command.target in sql
        assert "SELECT * FROM T_fin" in sql

    def test_access_commands_rendered_as_comments(self):
        scenario = example1()
        plan = find_best_plan(scenario.schema, scenario.query).best_plan
        sql = to_sql(plan)
        assert "-- A0: invoke access method mt_udir" in sql

    def test_all_operators_covered(self, simple_source):
        plan = Plan(
            (
                scan_r("T1"),
                scan_r("T2"),
                MiddlewareCommand(
                    "U", Union(Scan("T1"), Scan("T2"))
                ),
                MiddlewareCommand(
                    "D", Difference(Scan("U"), Scan("T1"))
                ),
                MiddlewareCommand(
                    "J",
                    Join(
                        Select(Scan("D"), (EqConst("x", Constant("a")),)),
                        Rename(Scan("T1"), (("y", "z"),)),
                    ),
                ),
            ),
            "J",
        )
        sql = to_sql(plan)
        for keyword in ("UNION", "EXCEPT", "NATURAL JOIN", "WHERE", "AS"):
            assert keyword in sql


class TestSerialization:
    def roundtrip(self, plan):
        data = json.loads(json.dumps(plan_to_ir(plan)))
        return ir_to_plan(data)

    def test_roundtrip_preserves_structure(self):
        scenario = example1()
        plan = find_best_plan(scenario.schema, scenario.query).best_plan
        restored = self.roundtrip(plan)
        assert restored.output_table == plan.output_table
        assert len(restored.commands) == len(plan.commands)
        assert restored.methods_used() == plan.methods_used()

    def test_roundtrip_preserves_semantics(self):
        scenario = example1()
        plan = find_best_plan(scenario.schema, scenario.query).best_plan
        restored = self.roundtrip(plan)
        instance = scenario.instance(0)
        a = plan.run(InMemorySource(scenario.schema, instance))
        b = restored.run(InMemorySource(scenario.schema, instance))
        assert a.rows == b.rows

    def test_roundtrip_constant_binding(self, simple_source):
        schema, source = simple_source
        schema2 = (
            SchemaBuilder("s2")
            .relation("R", 2)
            .access("mt_k", "R", inputs=[0])
            .build()
        )
        plan = Plan(
            (
                AccessCommand(
                    "T",
                    "mt_k",
                    Singleton(),
                    (Constant("a"),),
                    identity_output_map(("p0", "p1")),
                ),
            ),
            "T",
        )
        restored = self.roundtrip(plan)
        src = InMemorySource(
            schema2, Instance({"R": [("a", "1"), ("b", "2")]})
        )
        assert len(restored.run(src)) == 1

    def test_roundtrip_all_expression_ops(self):
        plan = Plan(
            (
                scan_r("T1"),
                scan_r("T2"),
                MiddlewareCommand(
                    "OUT",
                    Union(
                        Project(
                            Select(
                                Scan("T1"),
                                (EqConst("x", Constant("a")),),
                            ),
                            ("x", "y"),
                        ),
                        Difference(
                            Rename(Scan("T2"), ()),
                            Scan("T1"),
                        ),
                    ),
                ),
            ),
            "OUT",
        )
        restored = self.roundtrip(plan)
        assert len(restored.commands) == 3
