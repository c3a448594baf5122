"""Tests for the UCQ rewriting engine (Theorem 1) and piece unifiers."""

from __future__ import annotations

import pytest

from repro.logic import parse_instance, parse_query, parse_rule, parse_theory
from repro.logic.containment import are_equivalent, evaluate_ucq
from repro.logic.terms import FreshVariables
from repro.rewriting import (
    RewritingBudget,
    answer,
    answer_by_materialization,
    answer_by_rewriting,
    atomic_rewriting_sizes,
    cross_validate,
    depth_bound_from_rewriting,
    enough,
    iter_piece_unifiers,
    probe_bdd,
    rewrite,
    rewriting_size,
)
from repro.workloads import (
    example41,
    t_a,
    t_p,
    university_database,
    university_ontology,
)


class TestPieceUnifiers:
    def test_single_atom_unifies_with_head(self):
        rule = parse_rule("Human(y) -> exists z. Mother(y, z)")
        query = parse_query("q(x) := exists m. Mother(x, m)")
        unifiers = list(iter_piece_unifiers(query, rule, FreshVariables()))
        assert len(unifiers) == 1
        rewritten = unifiers[0].rewrite(query)
        assert rewritten.size == 1
        assert rewritten.atoms[0].predicate.name == "Human"

    def test_existential_position_cannot_take_answer_variable(self):
        rule = parse_rule("Human(y) -> exists z. Mother(y, z)")
        query = parse_query("q(x, m) := Mother(x, m)")  # m is an answer var
        assert list(iter_piece_unifiers(query, rule, FreshVariables())) == []

    def test_existential_position_cannot_leak_shared_variable(self):
        rule = parse_rule("Human(y) -> exists z. Mother(y, z)")
        # m also occurs outside the candidate piece -> must not unify with z.
        query = parse_query("q(x) := exists m. Mother(x, m), Person(m)")
        assert list(iter_piece_unifiers(query, rule, FreshVariables())) == []

    def test_piece_extension_merges_answer_variables(self):
        rule = parse_rule("P(y) -> exists z. E(y, z)")
        # Both atoms share the existential image z; the piece must grow to
        # {E(x,m), E(w,m)}, forcing x = w — legal: the disjunct's answer
        # tuple repeats the representative (Theorem 1 allows q(x, x)).
        query = parse_query("q(x, w) := exists m. E(x, m), E(w, m)")
        unifiers = list(iter_piece_unifiers(query, rule, FreshVariables()))
        merged = [u.rewrite(query) for u in unifiers if len(u.piece) == 2]
        assert merged
        assert all(len(set(q.answer_vars)) == 1 for q in merged)

    def test_piece_extension_succeeds_for_existential_sources(self):
        rule = parse_rule("P(y) -> exists z. E(y, z)")
        query = parse_query("q() := exists x, w, m. E(x, m), E(w, m)")
        unifiers = list(iter_piece_unifiers(query, rule, FreshVariables()))
        assert any(len(u.piece) == 2 for u in unifiers)

    def test_multi_head_unifier(self):
        rule = parse_rule("B(x) -> exists z. R(x, z), G(x, z)")
        query = parse_query("q(x) := exists z. R(x, z), G(x, z)")
        unifiers = list(iter_piece_unifiers(query, rule, FreshVariables()))
        assert any(len(u.piece) == 2 for u in unifiers)


class TestSaturation:
    def test_tp_path_query(self):
        query = parse_query("q(x) := exists y, z. E(x, y), E(y, z)")
        result = rewrite(t_p(), query)
        assert result.complete
        sizes = sorted(d.size for d in result.ucq)
        assert sizes == [1, 1]  # E(x,_) or E(_,x)

    def test_ta_grandmother(self):
        query = parse_query("q(x) := exists y, z. Mother(x, y), Mother(y, z)")
        result = rewrite(t_a(), query)
        assert result.complete
        assert len(result.ucq) == 3
        human = parse_query("q(x) := Human(x)")
        assert any(are_equivalent(d, human) for d in result.ucq)

    def test_rewriting_size_measure(self):
        query = parse_query("q(x) := exists y. Mother(x, y)")
        assert rewriting_size(t_a(), query) == 1

    def test_atomic_rewriting_sizes(self):
        sizes = atomic_rewriting_sizes(t_a())
        assert sizes == {"Human": 1, "Mother": 1}

    def test_non_bdd_theory_hits_budget(self):
        query = parse_query("q(x, z) := R(x, z)")
        result = rewrite(
            example41(), query, RewritingBudget(max_kept=40, max_steps=4_000)
        )
        assert not result.complete

    def test_rewriting_size_raises_on_incomplete(self):
        query = parse_query("q(x, z) := R(x, z)")
        with pytest.raises(RuntimeError):
            rewriting_size(
                example41(), query, RewritingBudget(max_kept=40, max_steps=4_000)
            )

    def test_minimality_no_mutual_containment(self):
        from repro.logic.containment import is_contained_in

        query = parse_query(
            "q(x) := exists c, p. EnrolledIn(x, c), TaughtBy(c, p), Person(p)"
        )
        result = rewrite(university_ontology(), query)
        disjuncts = result.ucq.disjuncts()
        for first in disjuncts:
            for second in disjuncts:
                if first is not second:
                    assert not is_contained_in(first, second)


class TestAnswering:
    def test_cross_validation_university(self):
        query = parse_query(
            "q(x) := exists c, p. EnrolledIn(x, c), TaughtBy(c, p), Person(p)"
        )
        report = cross_validate(
            university_ontology(), query, university_database(15, 4, 6, seed=3)
        )
        assert report.agree

    def test_cross_validation_ta(self):
        query = parse_query("q(x) := exists y, z. Mother(x, y), Mother(y, z)")
        report = cross_validate(t_a(), query, parse_instance("Human(abel). Mother(eve, sara)"))
        assert report.agree
        assert report.rewriting_answers

    def test_certain_answers_falls_back_to_chase(self):
        # Example 41 is datalog (terminating chase) but not BDD.
        query = parse_query("q(x, z) := R(x, z)")
        base = parse_instance("E(a, b, c). R(a, c)")
        answers = answer(
            example41(),
            query,
            base,
            budget=RewritingBudget(max_kept=20, max_steps=2_000),
        )
        from repro.logic.terms import Constant

        assert (Constant("b"), Constant("c")) in answers

    def test_rewriting_answers_are_base_only(self):
        query = parse_query("q(x) := exists y. Mother(x, y)")
        base = parse_instance("Human(abel)")
        answers = answer_by_rewriting(t_a(), query, base)
        from repro.logic.terms import Constant

        assert answers == {(Constant("abel"),)}

    def test_ground_bodyless_rule_answers_without_a_chase(self):
        # The chase never terminates, so only the rewriting can answer:
        # the bodyless rule has no universal head variable and fires on
        # the empty instance.
        theory = parse_theory(
            "true -> exists x. R(x)\nR(x) -> exists y. S(x, y)\nS(x, y) -> R(y)"
        )
        query = parse_query("q() := exists x. R(x)")
        result = rewrite(theory, query)
        assert result.complete and result.always_true_on_empty
        assert answer(theory, query, parse_instance("")) == {()}
        universal = parse_theory("true -> exists z. R(x, z)")
        assert not rewrite(universal, query).always_true_on_empty

    def test_materialization_depth_control(self):
        query = parse_query("q(x) := exists y. Mother(x, y)")
        base = parse_instance("Human(abel)")
        shallow = answer_by_materialization(t_a(), query, base, depth=0)
        deep = answer_by_materialization(t_a(), query, base, depth=2)
        assert shallow == set()
        assert deep


class TestBddDiagnostics:
    def test_enough_for_ta(self):
        query = parse_query("q(x) := exists y. Mother(x, y)")
        base = parse_instance("Human(abel)")
        assert not enough(t_a(), query, base, depth=0, probe_depth=4)
        assert enough(t_a(), query, base, depth=1, probe_depth=4)

    def test_depth_bound_from_rewriting(self):
        query = parse_query("q(x) := exists y, z. Mother(x, y), Mother(y, z)")
        bound = depth_bound_from_rewriting(t_a(), query)
        base = parse_instance("Human(abel)")
        assert enough(t_a(), query, base, depth=bound, probe_depth=bound + 3)

    def test_probe_bdd_positive(self):
        verdict = probe_bdd(t_a(), parse_query("q(x) := Human(x)"))
        assert verdict.certified_bdd
        assert verdict.depth_bound is not None

    def test_probe_bdd_negative_budget(self):
        verdict = probe_bdd(
            example41(),
            parse_query("q(x, z) := R(x, z)"),
            RewritingBudget(max_kept=30, max_steps=3_000),
        )
        assert not verdict.certified_bdd
