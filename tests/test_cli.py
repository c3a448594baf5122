"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.telemetry import validate_stats_dict
from tests.test_storage_equivalence import BOOLEAN_PROBES

TA = "Human(y) -> exists z. Mother(y, z)\nMother(x, y) -> Human(y)"


class TestChaseCommand:
    def test_chase_inline(self, capsys):
        code = main(["chase", "-e", TA, "Human(abel)", "--rounds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Mother(abel," in out
        assert out.startswith("# ")

    def test_chase_from_files(self, tmp_path, capsys):
        theory_file = tmp_path / "theory.tgd"
        theory_file.write_text(TA)
        data_file = tmp_path / "data.facts"
        data_file.write_text("Human(abel)")
        code = main(["chase", str(theory_file), str(data_file), "--rounds", "1"])
        assert code == 0
        assert "Human(abel)" in capsys.readouterr().out

    def test_chase_stats_prints_round_counters(self, capsys):
        code = main(["chase", "-e", TA, "Human(abel)", "--rounds", "2", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# stats: " in out and "chase.matches=" in out
        round_lines = [line for line in out.splitlines() if line.startswith("# round")]
        assert len(round_lines) == 2
        assert "matches=" in round_lines[0] and "total_atoms=" in round_lines[0]

    def test_chase_json_schema(self, capsys):
        code = main(["chase", "-e", TA, "Human(abel)", "--rounds", "2", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "chase"
        assert document["rounds_run"] == 2 and document["terminated"] is False
        validate_stats_dict(document["stats"])
        assert len(document["stats"]["rounds"]) == 2


class TestChaseSqliteBackend:
    TC = (
        "E(x, y) -> exists x1, y1. R(x, y, x1, y1)\n"
        "R(x, y, x1, y1), E(y, z) -> exists z1. R(y, z, y1, z1)"
    )

    def test_chase_sqlite_matches_memory(self, tmp_path, capsys):
        args = ["chase", "-e", self.TC, "E(a, b). E(b, c)", "--rounds", "3", "--json"]
        assert main(args) == 0
        memory = json.loads(capsys.readouterr().out)
        db = str(tmp_path / "chase.db")
        assert main(args + ["--backend", "sqlite", "--db", db]) == 0
        sqlite = json.loads(capsys.readouterr().out)
        assert sqlite["backend"] == "sqlite"
        assert sorted(sqlite["atoms"]) == sorted(memory["atoms"])
        assert "digest" in sqlite
        validate_stats_dict(sqlite["stats"])
        assert sqlite["stats"]["counters"]["store.writes"] >= 1

    def test_chase_sqlite_resume_extends(self, tmp_path, capsys):
        db = str(tmp_path / "chase.db")
        base = ["chase", "-e", self.TC, "E(a, b). E(b, c)", "--backend", "sqlite", "--db", db, "--json"]
        assert main(base + ["--rounds", "1"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(base + ["--resume", "--rounds", "2"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["rounds_run"] > first["rounds_run"]
        assert len(resumed["atoms"]) > len(first["atoms"])
        # One uninterrupted run over the same budget matches exactly.
        db2 = str(tmp_path / "oneshot.db")
        one_shot = ["chase", "-e", self.TC, "E(a, b). E(b, c)", "--backend", "sqlite", "--db", db2, "--json"]
        assert main(one_shot + ["--rounds", "3"]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert resumed["digest"] == reference["digest"]

    def test_chase_sqlite_runs_universal_heads_in_store(self, tmp_path, capsys):
        # Universal head variables run inside the store like any rule:
        # the db holds store-chase state and --resume continues it to
        # the memory engine's atoms.
        db = str(tmp_path / "universal.db")
        args = ["chase", "-e", "P(x) -> Q(x, y)", "P(a)", "--json"]
        code = main(args + ["--rounds", "1", "--backend", "sqlite", "--db", db])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["backend"] == "sqlite"
        assert any("Q(a," in atom for atom in document["atoms"])
        from repro.storage import SQLiteStore

        with SQLiteStore(db) as store:
            assert store.get_meta("storechase.schema") is not None
        code = main(
            [
                "chase", "-e", "P(x) -> Q(x, y)", "--resume",
                "--rounds", "2", "--backend", "sqlite", "--db", db, "--json",
            ]
        )
        assert code == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["terminated"]
        assert main(args + ["--rounds", "3"]) == 0
        assert resumed["atoms"] == json.loads(capsys.readouterr().out)["atoms"]

    def test_chase_sqlite_refuses_mixed_theories(self, tmp_path, capsys):
        # Re-running against an existing db with an unrelated theory must
        # be a reported refusal, not a silent merge of two incompatible
        # chases.
        db = str(tmp_path / "mix.db")
        first = [
            "chase", "-e", self.TC, "E(a, b). E(b, c)",
            "--rounds", "2", "--backend", "sqlite", "--db", db, "--json",
        ]
        assert main(first) == 0
        before = json.loads(capsys.readouterr().out)["digest"]
        code = main(
            [
                "chase", "-e", "P(x) -> R(x)", "P(a)",
                "--rounds", "2", "--backend", "sqlite", "--db", db, "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "refusing to mix" in captured.err
        from repro.storage import SQLiteStore

        with SQLiteStore(db) as store:
            assert store.digest() == before

    def test_chase_sqlite_universal_theory_refuses_dirty_db(self, tmp_path, capsys):
        # A universal theory gets the store chase's own guard: a db
        # already chased under another theory is refused and untouched.
        db = str(tmp_path / "dirty.db")
        assert main(
            [
                "chase", "-e", self.TC, "E(a, b)",
                "--rounds", "1", "--backend", "sqlite", "--db", db, "--json",
            ]
        ) == 0
        before = json.loads(capsys.readouterr().out)["digest"]
        code = main(
            [
                "chase", "-e", "P(x) -> Q(x, y)", "P(a)",
                "--rounds", "1", "--backend", "sqlite", "--db", db, "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "refusing to mix" in captured.err
        from repro.storage import SQLiteStore

        with SQLiteStore(db) as store:
            assert store.digest() == before

    def test_chase_sqlite_resume_requires_db(self, capsys):
        # A fresh :memory: store can never hold resumable state; fail
        # with a diagnostic instead of an uncaught StoreChaseError.
        code = main(
            ["chase", "-e", self.TC, "--resume", "--backend", "sqlite"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--resume requires --db" in captured.err


class TestRewriteCommand:
    def test_rewrite_inline(self, capsys):
        code = main(["rewrite", "-e", TA, "q(x) := exists y. Mother(x, y)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "complete: True" in out
        assert "Human(x)" in out

    def test_rewrite_json(self, capsys):
        code = main(
            ["rewrite", "-e", TA, "q(x) := exists y. Mother(x, y)", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["complete"] is True
        assert document["disjunct_count"] == len(document["disjuncts"])
        validate_stats_dict(document["stats"])

    def test_rewrite_incomplete_exit_code(self, capsys):
        non_bdd = "E(x, y, z), R(x, z) -> R(y, z)"
        code = main(
            [
                "rewrite",
                "-e",
                non_bdd,
                "q(x, z) := R(x, z)",
                "--max-kept",
                "20",
                "--max-steps",
                "500",
            ]
        )
        assert code == 2
        assert "complete: False" in capsys.readouterr().out


class TestAnswerCommand:
    def test_answer_inline(self, capsys):
        code = main(
            ["answer", "-e", TA, "Human(abel)", "q(x) := exists y. Mother(x, y)"]
        )
        assert code == 0
        assert "abel" in capsys.readouterr().out

    def test_answer_json_reports_strategy_and_stats(self, capsys):
        code = main(
            [
                "answer",
                "-e",
                TA,
                "Human(abel)",
                "q(x) := exists y. Mother(x, y)",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["answer_count"] == 1
        assert document["answers"] == [["abel"]]
        assert document["strategy"] == "rewrite"
        assert document["cache_info"]["rewriting"]["misses"] == 1
        validate_stats_dict(document["stats"])
        assert document["stats"]["counters"]["rewrite.steps"] >= 1

    def test_answer_sqlite_backend_matches_memory(self, tmp_path, capsys):
        args = [
            "answer", "-e", TA, "Human(abel)",
            "q(x) := exists y. Mother(x, y)", "--json",
        ]
        assert main(args) == 0
        memory = json.loads(capsys.readouterr().out)
        db = str(tmp_path / "answers.db")
        assert main(args + ["--backend", "sqlite", "--db", db]) == 0
        sqlite = json.loads(capsys.readouterr().out)
        assert sqlite["backend"] == "sqlite"
        assert sqlite["strategy"] == "sql"
        assert sorted(sqlite["answers"]) == sorted(memory["answers"])
        assert sqlite["cache_info"]["sql"]["misses"] == 1


class TestAnswerRoutes:
    TC = "E(x, y), E(y, z) -> E(x, z)"

    @pytest.mark.parametrize("backend", ["memory", "columnar", "sqlite"])
    @pytest.mark.parametrize("theory, instance, query", BOOLEAN_PROBES)
    def test_boolean_probes_match_materialization(
        self, theory, instance, query, backend, capsys
    ):
        from repro.logic import parse_instance, parse_query, parse_theory
        from repro.rewriting import answer_by_materialization

        expected = answer_by_materialization(
            parse_theory(theory), parse_query(query), parse_instance(instance)
        )
        args = ["answer", "-e", theory, instance, query, "--backend", backend, "--json"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["answer_count"] == len(expected)

    def test_refused_answer_keeps_the_stored_facts(self, tmp_path, capsys):
        db = str(tmp_path / "chased.db")
        chase = ["chase", "-e", self.TC]
        options = ["--backend", "sqlite", "--db", db, "--json"]
        assert main(chase + ["E(a, b). E(b, c)."] + options) == 0
        assert json.loads(capsys.readouterr().out)["digest"] == "e9549d10fff53bfe"
        code = main(
            [
                "answer", "-e", self.TC, "E(p, q).", "q(x) := exists y. E(x, y)",
                "--backend", "sqlite", "--db", db,
            ]
        )
        assert code == 2
        assert "already holds facts" in capsys.readouterr().err
        assert main(chase + ["--resume"] + options) == 0
        assert json.loads(capsys.readouterr().out)["digest"] == "e9549d10fff53bfe"


class TestClassifyCommand:
    def test_classify(self, capsys):
        code = main(["classify", "-e", TA, "--name", "T_a"])
        assert code == 0
        out = capsys.readouterr().out
        assert "T_a" in out
        assert "linear" in out

    def test_classify_json(self, capsys):
        code = main(["classify", "-e", TA, "--name", "T_a", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["name"] == "T_a"
        assert document["linear"] is True
        assert "known_bdd_by_syntax" in document


class TestTerminationCommand:
    def test_ct_witness_found(self, capsys):
        theory = "E(x, y) -> exists z. E(y, z)\nE(x, x1), E(x1, x2) -> E(x1, x1)"
        code = main(["termination", "-e", theory, "E(a, b). E(b, c)"])
        assert code == 0
        assert "c_(T,D) = " in capsys.readouterr().out

    def test_no_witness_exit_code(self, capsys):
        code = main(
            [
                "termination",
                "-e",
                "E(x, y) -> exists z. E(y, z)",
                "E(a, b)",
                "--depth",
                "4",
            ]
        )
        assert code == 2
        assert "no Core-Termination witness" in capsys.readouterr().out


class TestFigureCommand:
    def test_figure1(self, capsys):
        code = main(["figure1", "-n", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3/3" in out and "1/1" in out

    def test_figure1_json(self, capsys):
        code = main(["figure1", "-n", "2", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["n"] == 2
        assert all(
            level["satisfied"] == level["expected"] for level in document["levels"]
        )


class TestTerminationJson:
    def test_no_witness_json(self, capsys):
        code = main(
            [
                "termination",
                "-e",
                "E(x, y) -> exists z. E(y, z)",
                "E(a, b)",
                "--depth",
                "4",
                "--json",
            ]
        )
        assert code == 2
        document = json.loads(capsys.readouterr().out)
        assert document["bound"] is None and document["model"] is None


class TestParserErrors:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
