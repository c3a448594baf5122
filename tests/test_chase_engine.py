"""Tests for the semi-oblivious Skolem chase (Definition 6).

Includes a brute-force reference implementation of one chase round that the
semi-naive engine is checked against, plus the paper's Examples 1/7 and
Observation 8 (literal monotonicity under the Skolem naming convention).
"""

from __future__ import annotations

import itertools

import pytest

from repro.chase import ChaseBudget, ChaseBudgetExceeded, chase, resume
from repro.chase.skolem import skolemize
from repro.logic import Instance, parse_instance, parse_query, parse_theory
from repro.logic.atoms import Atom
from repro.logic.homomorphism import holds, iter_query_homomorphisms
from repro.logic.instance import subsets_of_size_at_most
from repro.logic.terms import Constant, FunctionTerm
from repro.workloads import (
    edge_path,
    exercise23,
    green_path,
    t_a,
    t_d,
    t_p,
    university_ontology,
)


def reference_round(theory, current: Instance) -> Instance:
    """One literal Definition-6 round: full evaluation, no semi-naive."""
    result = current.copy()
    for rule in theory:
        skolemized = skolemize(rule)
        universal = tuple(sorted(rule.universal_head_variables(), key=lambda v: v.name))
        for body_match in iter_query_homomorphisms(rule.body, current):
            assignments = [body_match]
            if universal:
                assignments = [
                    {**body_match, **dict(zip(universal, combo))}
                    for combo in itertools.product(
                        sorted(current.domain(), key=repr), repeat=len(universal)
                    )
                ]
            for sigma in assignments:
                for head_atom in skolemized.head:
                    result.add(head_atom.substitute(sigma))
    return result


class TestExamples1And7:
    def test_example_7_round_by_round(self, theory_ta, abel):
        result = chase(theory_ta, abel, budget=ChaseBudget(max_rounds=3))
        mum = FunctionTerm  # alias for readability below
        ch1 = result.prefix(1)
        assert len(ch1) == 2  # Human(abel) + Mother(abel, mum(abel))
        mothers = [a for a in ch1 if a.predicate.name == "Mother"]
        assert mothers[0].args[0] == Constant("abel")
        assert isinstance(mothers[0].args[1], mum)
        # Example 7's prose jumps straight to Mother(mum(Abel), mum²(Abel));
        # by the letter of Definition 6 Human(mum(Abel)) lands in Ch_2 and
        # the grandmother atom in Ch_3.
        ch2 = result.prefix(2)
        assert any(
            a.predicate.name == "Human" and isinstance(a.args[0], mum) for a in ch2
        )
        ch3 = result.prefix(3)
        grandmothers = [
            a
            for a in ch3
            if a.predicate.name == "Mother" and isinstance(a.args[0], mum)
        ]
        assert len(grandmothers) == 1

    def test_example_1_entailment(self, theory_ta, abel):
        result = chase(theory_ta, abel, budget=ChaseBudget(max_rounds=4))
        query = parse_query("q() := exists y, z. Mother('abel', y), Mother(y, z)")
        assert holds(query, result.instance)


class TestRoundSemantics:
    @pytest.mark.parametrize(
        "theory_factory, base_text",
        [
            (t_a, "Human(abel)"),
            (exercise23, "E(a, b). E(b, c)"),
            (t_p, "E(a, b)"),
        ],
    )
    def test_semi_naive_matches_reference(self, theory_factory, base_text):
        theory = theory_factory()
        base = parse_instance(base_text)
        result = chase(theory, base, budget=ChaseBudget(max_rounds=4))
        current = base.copy()
        for depth in range(1, 5):
            current = reference_round(theory, current)
            assert result.prefix(depth) == current

    def test_t_d_rounds_match_reference(self):
        theory = t_d()
        base = green_path(2)
        result = chase(theory, base, budget=ChaseBudget(max_rounds=3, max_atoms=100_000))
        current = base.copy()
        for depth in range(1, 4):
            current = reference_round(theory, current)
            assert result.prefix(depth) == current

    def test_round_zero_is_base(self, theory_ta, abel):
        result = chase(theory_ta, abel, budget=ChaseBudget(max_rounds=2))
        assert result.prefix(0) == abel

    def test_depth_of(self, theory_ta, abel):
        result = chase(theory_ta, abel, budget=ChaseBudget(max_rounds=2))
        human = next(iter(abel))
        assert result.depth_of(human) == 0
        produced = [a for a in result.instance if a not in abel]
        assert all(result.depth_of(a) in (1, 2) for a in produced)


class TestObservation8:
    def test_subset_chases_are_literal_subsets(self):
        """Skolem naming makes Ch(T, F) a literal subset of Ch(T, D)."""
        theory = exercise23()
        base = parse_instance("E(a, b). E(b, c). E(c, d)")
        full = chase(theory, base, budget=ChaseBudget(max_rounds=4, max_atoms=50_000)).instance
        for part in subsets_of_size_at_most(base, 2):
            partial = chase(theory, part, budget=ChaseBudget(max_rounds=4, max_atoms=50_000)).instance
            assert partial.issubset(full)

    def test_chasing_a_prefix_continues_identically(self):
        theory = t_a()
        base = parse_instance("Human(abel)")
        direct = chase(theory, base, budget=ChaseBudget(max_rounds=4))
        prefix = direct.prefix(2)
        rerun = chase(theory, prefix, budget=ChaseBudget(max_rounds=2))
        assert rerun.instance == direct.prefix(4)


class TestTermination:
    def test_fixpoint_detection(self):
        theory = parse_theory("P(x) -> exists y. Q(x, y)\nQ(x, y) -> R(y)")
        result = chase(theory, parse_instance("P(a)"), budget=ChaseBudget(max_rounds=10))
        assert result.terminated
        assert result.rounds_run == 2

    def test_h_star_raises_on_divergence(self):
        from repro.frontier import h_star

        with pytest.raises(ChaseBudgetExceeded):
            h_star(t_p(), parse_instance("E(a, b)"), max_rounds=5)

    def test_atom_budget_stops_early(self):
        result = chase(t_d(), green_path(2), budget=ChaseBudget(max_rounds=20, max_atoms=100))
        assert not result.terminated
        assert len(result.instance) > 100  # budget checked per round

    def test_budget_raise_mode(self):
        with pytest.raises(ChaseBudgetExceeded):
            chase(
                t_d(),
                green_path(2),
                budget=ChaseBudget(
                    max_rounds=20, max_atoms=100, on_exceeded="raise"
                ),
            )


class TestResume:
    def test_resume_equals_direct_run(self):
        theory = exercise23()
        base = edge_path(3)
        direct = chase(theory, base, budget=ChaseBudget(max_rounds=5, max_atoms=50_000))
        stepped = chase(theory, base, budget=ChaseBudget(max_rounds=2, max_atoms=50_000))
        stepped = resume(stepped, 3, budget=ChaseBudget(max_atoms=50_000))
        assert stepped.instance == direct.instance
        assert len(stepped.round_added) == len(direct.round_added)

    def test_resume_on_terminated_chase_is_noop(self):
        theory = parse_theory("P(x) -> Q(x)")
        done = chase(theory, parse_instance("P(a)"), budget=ChaseBudget(max_rounds=5))
        assert done.terminated
        assert resume(done, 5) is done


class TestUniversalVariables:
    def test_pins_fire_for_every_domain_element(self):
        theory = parse_theory("true -> exists z. R(x, z)")
        base = parse_instance("P(a). P(b)")
        result = chase(theory, base, budget=ChaseBudget(max_rounds=1))
        sources = {
            item.args[0] for item in result.instance if item.predicate.name == "R"
        }
        assert sources == {Constant("a"), Constant("b")}

    def test_pins_reach_invented_terms_in_later_rounds(self):
        theory = t_d()
        base = parse_instance("G(a, b)")
        result = chase(theory, base, budget=ChaseBudget(max_rounds=2, max_atoms=10_000))
        invented = [t for t in result.instance.domain() if isinstance(t, FunctionTerm)]
        red_sources = {
            item.args[0] for item in result.instance if item.predicate.name == "R"
        }
        assert any(term in red_sources for term in invented)

    def test_loop_fires_once_even_on_empty_instance(self):
        theory = parse_theory("true -> exists x. R(x, x), G(x, x)")
        result = chase(theory, Instance(), budget=ChaseBudget(max_rounds=3))
        assert result.terminated
        assert len(result.instance) == 2

    def test_provenance_recorded(self, theory_ta, abel):
        result = chase(theory_ta, abel, budget=ChaseBudget(max_rounds=2))
        produced = [a for a in result.instance if a not in abel]
        assert all(a in result.derivations for a in produced)
