"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.scenarios import example1
from repro.schema.serialize import schema_to_dict


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema_to_dict(example1().schema)))
    return str(path)


class TestDemo:
    def test_example1_demo_succeeds(self, capsys):
        assert main(["demo", "example1"]) == 0
        out = capsys.readouterr().out
        assert "complete: yes" in out
        assert "mt_udir" in out

    def test_chain_demo(self, capsys):
        assert main(["demo", "chain"]) == 0
        assert "complete: yes" in capsys.readouterr().out

    def test_budget_too_small_exit_code(self, capsys):
        assert main(["demo", "example2", "--max-accesses", "1"]) == 2

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "not-a-scenario"])


class TestServeDemoResilience:
    def test_hedged_thread_tier_serves_clean(self, capsys):
        code = main(
            [
                "serve-demo",
                "example1",
                "--worker-tier", "thread",
                "--hedge",
                "--watchdog-seconds", "5",
                "--requests", "4",
                "--latency", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "'hedge': True" in out
        assert "'watchdog_seconds': 5.0" in out

    @pytest.mark.parametrize("tier", ["thread", "process"])
    def test_every_worker_tier_serves_clean(self, capsys, tier):
        # The process tier cannot take the demo's access cache: the
        # demo must leave it out there rather than be refused.
        code = main(
            [
                "serve-demo",
                "example1",
                "--worker-tier", tier,
                "--tier-workers", "1",
                "--requests", "3",
                "--latency", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"'tier': '{tier}'" in out
        assert "FAILED" not in out
        assert ("cache: hits=" in out) == (tier == "thread")

    def test_resilience_flags_without_a_tier_print_a_note(self, capsys):
        code = main(
            [
                "serve-demo",
                "example1",
                "--hedge",
                "--requests", "2",
                "--latency", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "pass --worker-tier" in out

    def test_chaos_scenario_flag_runs_the_matrix_entry(self, capsys):
        code = main(
            ["serve-demo", "example1", "--chaos-scenario", "latency_storm"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "latency_storm[seed=0]: OK" in out
        assert "0 violations" in out

    def test_unknown_chaos_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve-demo", "example1", "--chaos-scenario", "meteor"])


class TestPlan:
    def test_plan_query_over_schema_file(self, schema_file, capsys):
        code = main(
            ["plan", schema_file, "q(eid) :- Profinfo(eid, o, 'smith')"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mt_prof" in out
        assert "static cost" in out

    def test_plan_sql_flag(self, schema_file, capsys):
        main(
            [
                "plan",
                schema_file,
                "q(eid) :- Profinfo(eid, o, 'smith')",
                "--sql",
            ]
        )
        out = capsys.readouterr().out
        assert "CREATE TEMP TABLE" in out

    def test_unanswerable_exit_code(self, schema_file, capsys):
        # Two-variable query over Udirect is answerable; use a fresh
        # schema with a hidden relation for the negative case.
        code = main(
            [
                "plan",
                schema_file,
                "q() :- Profinfo(e, o, l)",
                "--max-accesses",
                "1",
            ]
        )
        assert code == 2


class TestCheck:
    def test_answerable(self, schema_file, capsys):
        assert (
            main(["check", schema_file, "q() :- Profinfo(e, o, l)"]) == 0
        )
        assert "answerable" in capsys.readouterr().out

    def test_not_answerable_within_budget(self, schema_file):
        code = main(
            [
                "check",
                schema_file,
                "q() :- Profinfo(e, o, l)",
                "--max-accesses",
                "1",
            ]
        )
        assert code == 2
