"""Failure-injection and edge-behaviour tests across the stack.

Budgets, malformed inputs and impossible requests must fail loudly and
precisely — never with silent wrong answers (the repository-wide
convention documented in docs/architecture.md §5)."""

from __future__ import annotations

import pytest

from repro.chase import ChaseBudget, ChaseBudgetExceeded, chase
from repro.frontier import (
    MarkedQuery,
    NoMaximalVariable,
    NormalizationError,
    apply_operation,
    h_star,
    normalize,
)
from repro.frontier.process import run_process
from repro.frontier.td import phi_r_n
from repro.logic import Instance, ParseError, parse_instance, parse_query, parse_theory
from repro.logic.atoms import atom
from repro.logic.terms import FreshVariables, Variable
from repro.rewriting import RewritingBudget, answer_by_materialization, rewrite
from repro.workloads import t_p


class TestChaseBudgets:
    def test_raise_mode_is_loud(self):
        with pytest.raises(ChaseBudgetExceeded):
            chase(t_p(), parse_instance("E(a, b)"),
                  budget=ChaseBudget(max_rounds=30, max_atoms=5,
                                     on_exceeded="raise"))

    def test_return_mode_flags_truncation(self):
        result = chase(t_p(), parse_instance("E(a, b)"), budget=ChaseBudget(max_rounds=3))
        assert not result.terminated

    def test_invalid_budget_mode_rejected(self):
        with pytest.raises(ValueError):
            ChaseBudget(on_exceeded="whatever")

    def test_fixpoint_helper_refuses_divergence(self):
        with pytest.raises(ChaseBudgetExceeded):
            h_star(t_p(), parse_instance("E(a, b)"), max_rounds=4)

    def test_empty_instance_empty_theory(self):
        from repro.logic.tgd import Theory

        result = chase(Theory([], name="empty"), Instance(), budget=ChaseBudget(max_rounds=3))
        assert result.terminated
        assert len(result.instance) == 0


class TestRewritingBudgets:
    def test_incomplete_result_cannot_answer(self):
        from repro.rewriting import answer_by_rewriting
        from repro.workloads import example41

        query = parse_query("q(x, z) := R(x, z)")
        result = rewrite(example41(), query, RewritingBudget(max_kept=10, max_steps=300))
        assert not result.complete
        with pytest.raises(RuntimeError):
            answer_by_rewriting(example41(), query, Instance(), prepared=result)

    def test_materialization_without_depth_requires_termination(self):
        query = parse_query("q(x) := exists y. E(x, y)")
        with pytest.raises(RuntimeError):
            answer_by_materialization(
                t_p(), query, parse_instance("E(a, b)"),
                budget=ChaseBudget(max_rounds=4),
            )

    def test_max_disjunct_budget_marks_incomplete(self):
        query = parse_query("q(x) := exists y, z. E(x, y), E(y, z)")
        result = rewrite(t_p(), query, RewritingBudget(max_disjunct_atoms=0))
        assert not result.complete


class TestProcessFailures:
    def test_step_budget_is_loud(self):
        with pytest.raises(RuntimeError):
            run_process(phi_r_n(2), max_steps=3)

    def test_no_maximal_variable_is_a_bug_signal(self):
        x, y = Variable("x"), Variable("y")
        totally = MarkedQuery((), (atom("G", x, y),), frozenset({x, y}))
        with pytest.raises(NoMaximalVariable):
            apply_operation(totally, FreshVariables())


class TestNormalizationScope:
    def test_ternary_theory_rejected(self):
        with pytest.raises(NormalizationError):
            normalize(parse_theory("T(x, y, z) -> P(x)"))

    def test_frontier_two_existential_rule_rejected(self):
        # Binary signature but a frontier of size two in an existential
        # rule cannot happen with binary atoms... build a sneaky one with
        # two binary body atoms and a two-variable frontier head.
        theory = parse_theory("E(x, y) -> exists z. F(x, z), F(y, z)")
        with pytest.raises(NormalizationError):
            normalize(theory)

    def test_exhausted_rewriting_budget_fails_loudly(self):
        from repro.workloads import example66

        with pytest.raises(NormalizationError):
            normalize(example66(), RewritingBudget(max_steps=0))

    def test_transitive_closure_bodies_still_normalize(self):
        # Perhaps surprisingly, single-atom bodies rewrite *completely*
        # under transitive closure (longer paths are subsumed), so this
        # non-BDD theory still normalizes — the BDD assumption is about
        # the rule bodies' rewritings, which is all Appendix A needs.
        transitive = parse_theory(
            """
            E(x, y), E(y, z) -> E(x, z)
            E(x, y) -> exists w. F(y, w)
            """
        )
        result = normalize(transitive)
        assert len(result.normalized) >= 2


class TestParserFailures:
    @pytest.mark.parametrize(
        "text",
        [
            "E(x, y -> E(y, x)",      # unclosed paren
            "E(x, y) -> exists . E(y, x)",  # empty quantifier list
            "E(x, y) ->",             # missing head
        ],
    )
    def test_malformed_rules(self, text):
        from repro.logic import parse_rule

        with pytest.raises(ParseError):
            parse_rule(text)

    def test_arity_conflict_across_facts(self):
        with pytest.raises(ValueError):
            # Same predicate name at two arities: the Instance's signature
            # accepts it (predicates are name+arity pairs), so assert the
            # *signature* object flags it instead.
            from repro.logic.signature import Predicate, Signature

            Signature([Predicate("E", 2), Predicate("E", 3)])
