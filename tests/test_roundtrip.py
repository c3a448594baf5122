"""Round-trip and determinism tests: repr/parse, chase re-runs, canonical keys."""

from __future__ import annotations

import pytest

from repro.chase import ChaseBudget, chase
from repro.frontier import MarkedQuery
from repro.frontier.process import _canonical_key
from repro.logic import parse_query, parse_rule
from repro.logic.atoms import atom
from repro.logic.terms import FreshVariables, Variable
from repro.workloads import (
    edge_path,
    example39_sticky,
    example42_tc,
    exercise23,
    t_a,
    t_d,
    t_p,
    university_ontology,
)

ALL_THEORIES = [
    t_a,
    t_p,
    exercise23,
    example39_sticky,
    example42_tc,
    t_d,
    university_ontology,
]


class TestReprParseRoundTrip:
    @pytest.mark.parametrize("factory", ALL_THEORIES)
    def test_every_rule_reparses_to_itself(self, factory):
        for rule in factory():
            reparsed = parse_rule(repr(rule))
            assert reparsed.body == rule.body
            assert reparsed.head == rule.head
            assert reparsed.existential == rule.existential

    def test_query_repr_reparses_equivalently(self):
        from repro.logic.containment import are_equivalent

        query = parse_query("q(x) := exists y, z. E(x, y), E(y, z)")
        reparsed = parse_query(repr(query))
        assert reparsed.answer_vars == query.answer_vars
        assert are_equivalent(reparsed, query)


class TestChaseDeterminism:
    @pytest.mark.parametrize("factory", [t_a, exercise23, t_d])
    def test_two_runs_identical(self, factory):
        theory = factory()
        base = edge_path(2, predicate="E" if factory is not t_d else "G")
        first = chase(theory, base, budget=ChaseBudget(max_rounds=3, max_atoms=100_000))
        second = chase(theory, base, budget=ChaseBudget(max_rounds=3, max_atoms=100_000))
        assert first.instance == second.instance
        assert first.round_added == second.round_added


class TestCanonicalKeys:
    def _rename(self, mq: MarkedQuery, suffix: str) -> MarkedQuery:
        mapping = {v: Variable(f"{v.name}_{suffix}") for v in mq.variables()}
        atoms = tuple(a.substitute(mapping) for a in mq.atoms)
        marked = frozenset(mapping[v] for v in mq.marked)
        answers = tuple(mapping[v] for v in mq.answer_vars)
        return MarkedQuery(answers, atoms, marked)

    def test_key_invariant_under_renaming(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        mq = MarkedQuery(
            (x,),
            (atom("R", x, y), atom("G", y, z)),
            frozenset({x}),
        )
        assert _canonical_key(mq) == _canonical_key(self._rename(mq, "w"))

    def test_key_distinguishes_markings(self):
        x, y = Variable("x"), Variable("y")
        base = (atom("G", x, y),)
        a = MarkedQuery((), base, frozenset({x}))
        b = MarkedQuery((), base, frozenset({x, y}))
        assert _canonical_key(a) != _canonical_key(b)

    def test_key_distinguishes_colours(self):
        x, y = Variable("x"), Variable("y")
        red = MarkedQuery((), (atom("R", x, y),), frozenset({x}))
        green = MarkedQuery((), (atom("G", x, y),), frozenset({x}))
        assert _canonical_key(red) != _canonical_key(green)

    def test_key_invariant_for_symmetric_queries(self):
        # Two interchangeable branches: canonicalization must not depend on
        # the variable names chosen for them.
        x, a, b = Variable("x"), Variable("a"), Variable("b")
        first = MarkedQuery(
            (), (atom("G", x, a), atom("G", x, b)), frozenset({x})
        )
        c, d = Variable("zz"), Variable("aa")
        second = MarkedQuery(
            (), (atom("G", x, c), atom("G", x, d)), frozenset({x})
        )
        assert _canonical_key(first) == _canonical_key(second)


class TestSkolemStability:
    def test_same_rule_text_same_functors(self):
        from repro.chase.skolem import skolemize

        first = skolemize(parse_rule("Human(y) -> exists z. Mother(y, z)"))
        second = skolemize(parse_rule("Human(y) -> exists z. Mother(y, z)"))
        assert first.head == second.head

    def test_chase_prefix_then_resume_matches_repr(self):
        """Skolem terms are stable across runs, so even reprs agree."""
        base = edge_path(2)
        first = chase(exercise23(), base, budget=ChaseBudget(max_rounds=3, max_atoms=50_000))
        second = chase(exercise23(), base, budget=ChaseBudget(max_rounds=3, max_atoms=50_000))
        assert sorted(map(repr, first.instance)) == sorted(map(repr, second.instance))
