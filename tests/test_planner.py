"""Tests for the chase join planner (rule plans, static orders, pruning).

The planner is a pure optimization: every test here pins that down by
comparing planned semi-naive runs against the unplanned full-evaluation
ablation (``semi_naive=False``), atom-for-atom and round-for-round — the
equivalence Skolem determinism (Observation 8) guarantees.  The ``plan.*``
telemetry counters are asserted exactly on hand-built theories.
"""

from __future__ import annotations

import pytest

from repro.chase import ChaseBudget, chase, resume
from repro.chase.planner import plan_rule
from repro.logic import parse_instance, parse_theory
from repro.logic.homomorphism import (
    compile_query_patterns,
    connectivity_order,
    iter_pattern_homomorphisms,
    plan_join,
)
from repro.logic.instance import Instance
from repro.logic.parser import parse_rule
from repro.telemetry import Telemetry
from repro.workloads import (
    edge_cycle,
    edge_path,
    exercise23,
    green_path,
    t_a,
    t_d,
    t_p,
    university_database,
    university_ontology,
)


def assert_chases_identical(theory, base, rounds):
    """Planned semi-naive run == full-evaluation run, atom for atom."""
    budget = ChaseBudget(max_rounds=rounds, max_atoms=200_000)
    planned = chase(theory, base, budget=budget, semi_naive=True)
    naive = chase(theory, base, budget=budget, semi_naive=False)
    assert planned.round_added == naive.round_added
    assert planned.instance == naive.instance
    assert planned.terminated == naive.terminated


class TestConnectivityOrder:
    def test_chain_is_followed(self):
        patterns = compile_query_patterns(
            parse_rule("E(x,y), E(y,z), E(z,w) -> P(x)").body
        )
        order, connected = connectivity_order(patterns)
        assert connected
        # Each atom after the first shares a variable with the prefix.
        assert sorted(order) == [0, 1, 2]
        assert order[1] in (0, 1, 2)

    def test_pivot_start_respected(self):
        patterns = compile_query_patterns(
            parse_rule("E(x,y), E(y,z) -> P(x)").body
        )
        order, connected = connectivity_order(patterns, first=1)
        assert connected
        assert order[0] == 1

    def test_disconnected_body_flagged(self):
        patterns = compile_query_patterns(
            parse_rule("E(x,y), F(u,v) -> P(x)").body
        )
        _, connected = connectivity_order(patterns)
        assert not connected

    def test_deterministic(self):
        patterns = compile_query_patterns(
            parse_rule("E(x,y), E(y,z), G(z,x) -> P(x)").body
        )
        assert connectivity_order(patterns) == connectivity_order(patterns)


class TestPlanJoin:
    def test_connected_body_gets_all_orders(self):
        patterns = compile_query_patterns(
            parse_rule("E(x,y), E(y,z) -> P(x)").body
        )
        plan = plan_join(patterns)
        assert plan.base_order is not None
        assert len(plan.pivot_orders) == 2
        assert all(order is not None for order in plan.pivot_orders)
        for pivot, order in enumerate(plan.pivot_orders):
            assert order[0] == pivot

    def test_disconnected_body_falls_back(self):
        patterns = compile_query_patterns(
            parse_rule("E(x,y), F(u,v) -> P(x)").body
        )
        plan = plan_join(patterns)
        assert plan.base_order is None
        assert all(order is None for order in plan.pivot_orders)

    def test_planned_search_same_homomorphisms(self):
        rule = parse_rule("E(x,y), E(y,z), G(z,w) -> P(x)")
        patterns = compile_query_patterns(rule.body)
        plan = plan_join(patterns)
        instance = parse_instance(
            "E(a,b), E(b,c), E(c,d), G(c,e), G(d,f), E(b,b), G(b,a)"
        )
        unplanned = [
            tuple(sorted((k.name, repr(v)) for k, v in hom.items()))
            for hom in iter_pattern_homomorphisms(patterns, instance)
        ]
        planned = [
            tuple(sorted((k.name, repr(v)) for k, v in hom.items()))
            for hom in iter_pattern_homomorphisms(patterns, instance, plan=plan)
        ]
        assert sorted(unplanned) == sorted(planned)

    def test_planned_delta_search_same_homomorphisms(self):
        rule = parse_rule("E(x,y), G(y,z) -> P(x)")
        patterns = compile_query_patterns(rule.body)
        plan = plan_join(patterns)
        instance = parse_instance("E(a,b), G(b,c), E(b,c), G(c,a)")
        delta = parse_instance("G(b,c)")
        unplanned = {
            tuple(sorted((k.name, repr(v)) for k, v in hom.items()))
            for hom in iter_pattern_homomorphisms(patterns, instance, delta=delta)
        }
        planned = {
            tuple(sorted((k.name, repr(v)) for k, v in hom.items()))
            for hom in iter_pattern_homomorphisms(
                patterns, instance, delta=delta, plan=plan
            )
        }
        assert unplanned == planned


class TestRulePlan:
    def test_body_predicates_and_universal(self):
        rule = parse_rule("E(x,y) -> exists z. R(y,z)")
        plan = plan_rule(rule, compile_query_patterns(rule.body))
        assert {p.name for p in plan.body_predicates} == {"E"}
        assert plan.universal == ()
        assert plan.has_body

    def test_universal_rule_relevant_on_new_terms(self):
        rule = parse_rule("true -> exists z. R(x,z)")
        plan = plan_rule(rule, compile_query_patterns(rule.body))
        assert not plan.has_body
        assert [v.name for v in plan.universal] == ["x"]
        assert plan.relevant(set(), {object()})
        assert not plan.relevant(set(), set())

    def test_body_rule_irrelevant_when_predicates_disjoint(self):
        rule = parse_rule("E(x,y) -> P(x)")
        plan = plan_rule(rule, compile_query_patterns(rule.body))
        p = parse_rule("P(x) -> Q(x)").body[0].predicate
        assert not plan.relevant({p}, {object()})
        assert plan.relevant({rule.body[0].predicate}, None)


class TestChaseEquivalence:
    """Planned semi-naive chase == unplanned full evaluation, everywhere."""

    def test_t_a_family_tree(self):
        base = parse_instance("Human('abel')")
        assert_chases_identical(t_a(), base, rounds=4)

    def test_t_p_paths(self):
        assert_chases_identical(t_p(), edge_path(4), rounds=4)

    def test_t_d_universal_rules_on_green_path(self):
        # T_d has empty-body rules and universal head variables: the
        # delta-restricted product must cover exactly the new-term
        # assignments each round.
        assert_chases_identical(t_d(), green_path(3), rounds=3)

    def test_exercise23_on_cycle(self):
        assert_chases_identical(exercise23(), edge_cycle(4), rounds=4)

    def test_university_ontology(self):
        base = university_database(students=12, professors=3, courses=5, seed=7)
        assert_chases_identical(university_ontology(), base, rounds=3)

    def test_resume_mid_run_matches_straight_run(self):
        theory = t_d()
        base = green_path(3)
        straight = chase(theory, base, budget=ChaseBudget(max_rounds=3))
        prefix = chase(theory, base, budget=ChaseBudget(max_rounds=1))
        resumed = resume(prefix, 2)
        assert resumed.round_added == straight.round_added
        assert resumed.instance == straight.instance

    def test_resume_equivalent_to_naive(self):
        theory = university_ontology()
        base = university_database(students=10, professors=2, courses=4, seed=3)
        naive = chase(theory, base, budget=ChaseBudget(max_rounds=3), semi_naive=False)
        prefix = chase(theory, base, budget=ChaseBudget(max_rounds=1))
        resumed = resume(prefix, 2)
        assert resumed.round_added == naive.round_added
        assert resumed.instance == naive.instance


class TestPlanTelemetry:
    def test_rules_skipped_exact(self):
        # Two rule "islands": once the E-island stops producing, the
        # F-island rule must be skipped by relevance (and vice versa).
        theory = parse_theory(
            """
            E(x,y) -> E(y,x)
            F(x) -> G(x)
            """
        )
        base = parse_instance("E(a,b), F(c)")
        result = chase(theory, base, budget=ChaseBudget(max_rounds=5))
        counters = result.stats.counters
        # Round 1: full evaluation, nothing skipped. Round 2 (the empty
        # fixpoint-confirming round): delta is {E(b,a), G(c)}; the F-rule's
        # body predicate is absent -> skipped exactly once.
        assert result.rounds_run == 1
        assert result.terminated
        assert counters["plan.rules_skipped"] == 1
        assert counters["plan.nodes_saved"] >= 1

    def test_empty_body_rule_skipped_after_first_round(self):
        # true -> R(c, c) with no universal variable can only ever fire in
        # round 1; relevance must skip it every later round.
        theory = parse_theory("true -> R('c','c')")
        base = parse_instance("P('a')")
        result = chase(theory, base, budget=ChaseBudget(max_rounds=5))
        assert result.rounds_run == 1
        assert result.terminated
        assert result.stats.counters["plan.rules_skipped"] == 1

    def test_pivots_skipped_exact(self):
        # Body E(x,y), G(y,z): round 2's delta contains only G-atoms, so
        # the E-pivot search is skipped.
        theory = parse_theory(
            """
            E(x,y) -> G(x,y)
            E(x,y), G(y,z) -> P(x)
            """
        )
        base = parse_instance("E(a,b), E(b,c)")
        result = chase(theory, base, budget=ChaseBudget(max_rounds=4))
        counters = result.stats.counters
        assert counters["plan.pivots_skipped"] > 0
        assert counters["plan.plans_reused"] > 0

    def test_plans_reused_counts_every_ordered_search(self):
        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        base = edge_path(3)
        result = chase(theory, base, budget=ChaseBudget(max_rounds=4))
        counters = result.stats.counters
        # Round 1 (full eval): 1 ordered search. Later rounds: one per
        # unskipped pivot.
        assert counters["plan.plans_reused"] >= 3
        assert counters["plan.rules_skipped"] == 0

    def test_counters_absent_without_telemetry_sharing(self):
        # Ablation path: an unplanned search must not touch plan counters.
        telemetry = Telemetry()
        theory = parse_theory("E(x,y) -> P(x)")
        chase(theory, parse_instance("E(a,b)"), semi_naive=False, telemetry=telemetry)
        assert telemetry.counters["plan.rules_skipped"] == 0
        assert telemetry.counters["plan.pivots_skipped"] == 0


class TestPreparedRuleCache:
    def test_same_theory_object_shares_preparation(self):
        from repro.chase.engine import _prepare_rules

        theory = t_p()
        assert _prepare_rules(theory) is _prepare_rules(theory)

    def test_distinct_theory_objects_prepare_independently(self):
        from repro.chase.engine import _prepare_rules

        assert _prepare_rules(t_p()) is not _prepare_rules(t_p())


    def test_rules_are_lowered_once_per_theory(self, monkeypatch, tmp_path):
        # Every id-native run shares the one lowering in the memo: two
        # columnar chases, a resume, an incremental update and store
        # chases on two stores.
        from repro import incremental_update
        from repro.chase import engine, planner
        from repro.storage import SQLiteStore, chase_into_store

        lowered = []
        lower_rule = planner.lower_rule

        def counting(skolemized, plan):
            lowered.append(skolemized.rule)
            return lower_rule(skolemized, plan)

        for module in (planner, engine):
            monkeypatch.setattr(module, "lower_rule", counting)
        theory = parse_theory("E(x, y), E(y, z) -> E(x, z)", name="lowered-once")
        base = parse_instance("E(a, b). E(b, c). E(c, d).")
        budget = ChaseBudget(max_rounds=20)
        prefix = chase(
            theory, base, budget=ChaseBudget(max_rounds=1), backend="columnar"
        )
        resume(prefix, 20, backend="columnar")
        done = chase(theory, base, budget=budget, backend="columnar")
        incremental_update(
            done, add=parse_instance("E(d, e)."), budget=budget, backend="columnar"
        )
        for path in (":memory:", tmp_path / "store.db"):
            with SQLiteStore(path) as store:
                assert chase_into_store(theory, base, store, budget=budget).terminated
        assert lowered == list(theory)


class TestDepthIndex:
    def test_depth_of_matches_round_added(self):
        result = chase(t_p(), edge_path(4), budget=ChaseBudget(max_rounds=4))
        for depth, added in enumerate(result.round_added):
            for item in added:
                assert result.depth_of(item) == depth

    def test_depth_of_unknown_atom_is_none(self):
        result = chase(t_p(), edge_path(3), budget=ChaseBudget(max_rounds=2))
        stranger = parse_instance("Zzz(q)").atoms()
        assert result.depth_of(next(iter(stranger))) is None

    def test_depth_of_after_resume_sees_new_rounds(self):
        prefix = chase(t_d(), green_path(3), budget=ChaseBudget(max_rounds=1))
        assert prefix.depth_of(next(iter(prefix.round_added[1]))) == 1
        resumed = resume(prefix, 2)
        late = next(iter(resumed.round_added[-1]))
        assert resumed.depth_of(late) == len(resumed.round_added) - 1
