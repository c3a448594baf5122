"""Tests for repro.telemetry and its threading through the engines.

The counter assertions are exact: on theories small enough to trace by
hand, the instrumentation must report precisely the work Definition 6
prescribes — that is what makes the stats trustworthy on big runs.
"""

from __future__ import annotations

import json

import pytest

from repro.chase import ChaseBudget, chase, chase_to_fixpoint, resume
from repro.logic import parse_instance, parse_query, parse_theory
from repro.rewriting import answer_by_materialization, rewrite
from repro.telemetry import Telemetry, validate_stats_dict


class TestTelemetryPrimitives:
    def test_count_and_gauge(self):
        t = Telemetry()
        t.count("x.a")
        t.count("x.a", 4)
        t.gauge_max("x.peak", 3)
        t.gauge_max("x.peak", 2)
        assert t.counters["x.a"] == 5
        assert t.counters["x.peak"] == 3

    def test_phase_accumulates(self):
        t = Telemetry()
        with t.phase("p"):
            pass
        first = t.phases["p"]
        with t.phase("p"):
            pass
        assert t.phases["p"] >= first

    def test_hooks_see_round_records(self):
        seen = []
        t = Telemetry(hooks=(lambda event, payload: seen.append((event, payload)),))
        entry = t.record_round(round=1, matches=2)
        assert seen == [("round", entry)]

    def test_fork_is_independent(self):
        t = Telemetry()
        t.count("a")
        t.record_round(round=1)
        copy = t.fork()
        copy.count("a")
        copy.record_round(round=2)
        assert t.counters["a"] == 1 and copy.counters["a"] == 2
        assert len(t.rounds) == 1 and len(copy.rounds) == 2

    def test_merge_sums(self):
        left, right = Telemetry(), Telemetry()
        left.count("a", 2)
        right.count("a", 3)
        right.record_round(round=1)
        left.merge(right)
        assert left.counters["a"] == 5
        assert len(left.rounds) == 1

    def test_as_dict_is_json_ready(self):
        t = Telemetry()
        t.count("a")
        with t.phase("p"):
            pass
        t.record_round(round=1, seconds=0.5, terminated=True)
        document = t.as_dict()
        validate_stats_dict(document)
        json.dumps(document)  # must not raise


class TestStatsSchema:
    def test_accepts_minimal(self):
        validate_stats_dict({"counters": {}, "phases": {}, "rounds": []})

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            {"counters": {}, "phases": {}},
            {"counters": {"a": "1"}, "phases": {}, "rounds": []},
            {"counters": {}, "phases": {"p": "fast"}, "rounds": []},
            {"counters": {}, "phases": {}, "rounds": [{"nested": {}}]},
            {"counters": {}, "phases": {}, "rounds": [["not", "a", "dict"]]},
        ],
    )
    def test_rejects_violations(self, bad):
        with pytest.raises(ValueError):
            validate_stats_dict(bad)


class TestChaseCounters:
    def test_single_rule_exact_counts(self):
        # P(a) |= P(x) -> Q(x): one match in round 1, one empty
        # fixpoint-confirming round after it.
        theory = parse_theory("P(x) -> Q(x)")
        result = chase(theory, parse_instance("P(a)"))
        assert result.terminated and result.rounds_run == 1
        counters = result.stats.counters
        assert counters["chase.rounds"] == 2
        assert counters["chase.matches"] == 1
        assert counters["chase.atoms_produced"] == 1
        assert counters["chase.dedup_hits"] == 0
        # Per-round records: the productive round, then the empty one.
        assert len(result.stats.rounds) == 2
        first, last = result.stats.rounds
        assert first["round"] == 1 and first["matches"] == 1
        assert first["atoms_produced"] == 1 and first["total_atoms"] == 2
        assert last["round"] == 2 and last["atoms_produced"] == 0

    def test_cycle_counts_dedup_hit(self):
        # Round 2 re-derives P(a) from Q(a); the duplicate is counted.
        theory = parse_theory("P(x) -> Q(x)\nQ(x) -> P(x)")
        result = chase(theory, parse_instance("P(a)"))
        assert result.terminated
        counters = result.stats.counters
        assert counters["chase.matches"] == 2
        assert counters["chase.atoms_produced"] == 1
        assert counters["chase.dedup_hits"] == 1

    def test_hom_counters_populated(self):
        theory = parse_theory("E(x, y) -> E(y, x)")
        result = chase(theory, parse_instance("E(a, b)"))
        counters = result.stats.counters
        assert counters["hom.nodes"] > 0
        assert counters["hom.candidates_scanned"] > 0
        assert counters["hom.candidates_estimated"] >= 0

    def test_truncated_run_has_no_terminal_record(self):
        theory = parse_theory(
            "Human(y) -> exists z. Mother(y, z)\nMother(x, y) -> Human(y)"
        )
        result = chase(
            theory, parse_instance("Human(abel)"), budget=ChaseBudget(max_rounds=3)
        )
        assert not result.terminated and result.rounds_run == 3
        assert len(result.stats.rounds) == 3
        assert all(entry["atoms_produced"] > 0 for entry in result.stats.rounds)


class TestResumeEquivalence:
    THEORY = "Human(y) -> exists z. Mother(y, z)\nMother(x, y) -> Human(y)"

    def test_resume_matches_one_shot_run(self):
        theory = parse_theory(self.THEORY)
        base = parse_instance("Human(abel)")
        one_shot = chase(theory, base, budget=ChaseBudget(max_rounds=4))
        prefix = chase(theory, base, budget=ChaseBudget(max_rounds=2))
        resumed = resume(prefix, 2)
        assert resumed.instance == one_shot.instance
        assert resumed.round_added == one_shot.round_added
        # Stats continue seamlessly: same records modulo wall time.
        strip = lambda rounds: [
            {k: v for k, v in entry.items() if k != "seconds"} for entry in rounds
        ]
        assert strip(resumed.stats.rounds) == strip(one_shot.stats.rounds)
        assert (
            resumed.stats.counters["chase.matches"]
            == one_shot.stats.counters["chase.matches"]
        )

    def test_resume_does_not_mutate_prefix_stats(self):
        theory = parse_theory(self.THEORY)
        prefix = chase(
            theory, parse_instance("Human(abel)"), budget=ChaseBudget(max_rounds=1)
        )
        before = len(prefix.stats.rounds)
        resume(prefix, 2)
        assert len(prefix.stats.rounds) == before


class TestBudgetAPI:
    def test_legacy_kwargs_removed(self):
        # The pre-ChaseBudget kwargs (deprecated in 1.1) are gone from
        # every signature: Python itself rejects them.
        theory = parse_theory("P(x) -> Q(x)")
        base = parse_instance("P(a)")
        unexpected = "unexpected keyword argument"
        with pytest.raises(TypeError, match=unexpected):
            chase(theory, base, max_rounds=2)
        with pytest.raises(TypeError, match=unexpected):
            chase(theory, base, max_atoms=10)
        with pytest.raises(TypeError, match=unexpected):
            chase(theory, base, on_budget="raise")
        truncated = chase(
            theory,
            parse_instance("Human(abel)"),
            budget=ChaseBudget(max_rounds=1),
        )
        with pytest.raises(TypeError, match=unexpected):
            resume(truncated, 1, max_atoms=10)
        with pytest.raises(TypeError, match=unexpected):
            chase_to_fixpoint(theory, base, max_rounds=5)
        with pytest.raises(TypeError, match=unexpected):
            answer_by_materialization(
                theory, parse_query("q(x) := Q(x)"), base, max_rounds=5
            )

    def test_legacy_kwargs_rejected_before_any_work(self):
        # The TypeError fires at the call, before the chase runs a round.
        theory = parse_theory("P(x) -> Q(x)")
        telemetry = Telemetry()
        with pytest.raises(TypeError, match="max_rounds"):
            chase(
                theory, parse_instance("P(a)"), telemetry=telemetry, max_rounds=0
            )
        assert not telemetry.counters and not telemetry.rounds

    def test_budget_path_is_silent(self, recwarn):
        theory = parse_theory("P(x) -> Q(x)")
        chase(theory, parse_instance("P(a)"), budget=ChaseBudget(max_rounds=2))
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_both_spellings_rejected(self):
        theory = parse_theory("P(x) -> Q(x)")
        with pytest.raises(TypeError):
            chase(
                theory,
                parse_instance("P(a)"),
                budget=ChaseBudget(),
                max_rounds=2,
            )

    def test_on_exceeded_validated(self):
        with pytest.raises(ValueError):
            ChaseBudget(on_exceeded="explode")

    def test_on_exceeded_raise(self):
        from repro.chase.engine import ChaseBudgetExceeded

        theory = parse_theory(
            "Human(y) -> exists z. Mother(y, z)\nMother(x, y) -> Human(y)"
        )
        with pytest.raises(ChaseBudgetExceeded):
            chase(
                theory,
                parse_instance("Human(abel)"),
                budget=ChaseBudget(max_rounds=50, max_atoms=5, on_exceeded="raise"),
            )


class TestRewriteCounters:
    def test_atomic_rewriting_counts(self):
        theory = parse_theory("Trusted(x) -> Admitted(x)")
        result = rewrite(theory, parse_query("q(v) := Admitted(v)"))
        counters = result.stats.counters
        assert result.complete
        assert counters["rewrite.kept"] == 2
        assert counters["rewrite.produced"] == 1
        assert counters["rewrite.steps"] == 1
        assert counters["rewrite.queue_peak"] >= 1
        assert "rewrite" in result.stats.phases
