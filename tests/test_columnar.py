"""Tests for the columnar chase kernel and the unified backend registry.

The columnar kernel is a pure optimization, exactly like the planner
before it: every test here pins that down by comparing
``backend="columnar"`` runs against the object engine
(``backend="memory"``) atom-for-atom, round-for-round, and — because the
kernel mirrors the engine's pivot semantics — *counter-for-counter* on
``chase.matches`` / ``chase.atoms_produced`` / ``chase.dedup_hits``.
The equivalence is guaranteed by Skolem-naming determinism
(Observation 8): both kernels derive the same head atom from the same
trigger, whatever order the joins ran in.
"""

from __future__ import annotations

import pytest

from repro.chase import ChaseBudget, chase, resume
from repro.chase.columnar_kernel import evaluate_ucq_columnar
from repro.logic import parse_instance, parse_query, parse_theory
from repro.logic.containment import evaluate_ucq
from repro.logic.signature import Predicate
from repro.rewriting import OMQASession, answer, rewrite
from repro.rewriting.engine import RewritingBudget
from repro.storage import (
    BACKEND_NAMES,
    ColumnarStore,
    SQLiteStore,
    resolve_backend,
)
from repro.workloads import (
    edge_cycle,
    edge_path,
    example42_tc,
    exercise23,
    green_path,
    t_a,
    t_d,
    t_p,
    university_database,
    university_ontology,
)
from repro.workloads.generators import random_instance

EXACT_COUNTERS = ("chase.matches", "chase.atoms_produced", "chase.dedup_hits")


def assert_columnar_identical(theory, base, rounds, **chase_kwargs):
    """Columnar run == object-engine run, atom for atom and count for count."""
    budget = ChaseBudget(max_rounds=rounds, max_atoms=200_000)
    reference = chase(theory, base, budget=budget, backend="memory", **chase_kwargs)
    columnar = chase(theory, base, budget=budget, backend="columnar", **chase_kwargs)
    assert columnar.round_added == reference.round_added
    assert columnar.instance == reference.instance
    assert columnar.terminated == reference.terminated
    for name in EXACT_COUNTERS:
        assert (
            columnar.stats.counters[name] == reference.stats.counters[name]
        ), name
    return columnar


class TestRoundEquivalence:
    """Every planner-equivalence fixture, columnar vs object engine."""

    def test_t_a_family_tree(self):
        assert_columnar_identical(t_a(), parse_instance("Human('abel')"), rounds=4)

    def test_t_p_paths(self):
        assert_columnar_identical(t_p(), edge_path(4), rounds=4)

    def test_t_d_universal_rules_on_green_path(self):
        # Empty bodies and universal head variables (the T_d family) run
        # in the kernel too: every match of the run is a columnar one.
        result = assert_columnar_identical(t_d(), green_path(3), rounds=3)
        counters = result.stats.counters
        assert "columnar.fallback_rules" not in counters
        assert counters["columnar.matches"] == counters["chase.matches"] > 0

    def test_exercise23_on_cycle(self):
        assert_columnar_identical(exercise23(), edge_cycle(4), rounds=4)

    def test_tc_on_cycle(self):
        assert_columnar_identical(example42_tc(), edge_cycle(5), rounds=8)

    def test_university_ontology(self):
        base = university_database(students=12, professors=3, courses=5, seed=7)
        assert_columnar_identical(university_ontology(), base, rounds=3)

    def test_full_evaluation_mode(self):
        # semi_naive=False exercises the kernel's base-order join only.
        assert_columnar_identical(
            exercise23(), edge_cycle(4), rounds=4, semi_naive=False
        )

    def test_random_workload_parity(self):
        # A seeded stress workload: transitive closure plus existential
        # invention over random edges.
        theory = parse_theory(
            """
            E(x,y), E(y,z) -> E(x,z)
            E(x,y) -> exists w. F(y,w)
            F(x,y), E(z,x) -> G(z,y)
            """
        )
        predicates = {
            atom.predicate for rule in theory.rules() for atom in rule.body
        }
        base = random_instance(
            sorted(predicates, key=lambda p: p.name),
            fact_count=40,
            domain_size=12,
            seed=20260805,
        )
        assert_columnar_identical(theory, base, rounds=4)

    def test_dense_transitive_closure(self):
        # The workload the kernel exists for: matches outnumber new atoms
        # by two orders of magnitude.  Its fixpoint is also checked
        # against the closure computed directly over the edge pairs.
        theory = parse_theory("E(x, y), E(y, z) -> E(x, z)")
        edge = Predicate("E", 2)
        base = random_instance([edge], fact_count=80, domain_size=24, seed=20260808)
        result = assert_columnar_identical(theory, base, rounds=20)
        closure = {item.args for item in base}
        while True:
            joined = {(x, z) for x, y in closure for w, z in closure if y == w}
            if joined <= closure:
                break
            closure |= joined
        assert result.terminated
        assert {item.args for item in result.instance} == closure

    def test_columnar_is_the_default_backend(self):
        result = chase(t_p(), edge_path(3), budget=ChaseBudget(max_rounds=3))
        assert result.stats.counters["columnar.rounds"] > 0


class TestRuleShapes:
    """Body shapes that stress the id-level join compiler."""

    def test_body_constants(self):
        theory = parse_theory("E('hub', x), E(x, y) -> Reach(y)")
        base = parse_instance("E('hub','a'), E('a','b'), E('b','c'), E('other','z')")
        assert_columnar_identical(theory, base, rounds=3)

    def test_repeated_variables(self):
        theory = parse_theory("E(x, x) -> Loop(x)\nE(x, y), E(y, x) -> Mutual(x, y)")
        base = parse_instance("E('a','a'), E('a','b'), E('b','a'), E('b','c')")
        assert_columnar_identical(theory, base, rounds=2)

    def test_disconnected_body(self):
        # plan_join refuses disconnected bodies (base_order None); the
        # kernel joins them with its identity fallback order.
        theory = parse_theory("P(x), Q(y) -> R(x, y)")
        base = parse_instance("P('a'), P('b'), Q('c')")
        assert_columnar_identical(theory, base, rounds=2)

    def test_nullary_predicates(self):
        theory = parse_theory("P(x) -> Flag()\nFlag() -> Done()")
        base = parse_instance("P('a'), P('b')")
        assert_columnar_identical(theory, base, rounds=3)

    def test_skolem_terms_round_trip(self):
        # Invented terms are interned on first derivation and feed later
        # joins; deep nesting must decode back to the engine's atoms.
        theory = parse_theory(
            "Human(y) -> exists z. Mother(y, z)\nMother(x, y) -> Human(y)"
        )
        assert_columnar_identical(theory, parse_instance("Human('abel')"), rounds=4)


class TestResume:
    THEORY = "Human(y) -> exists z. Mother(y, z)\nMother(x, y) -> Human(y)"

    def test_resume_columnar_matches_one_shot(self):
        theory = parse_theory(self.THEORY)
        base = parse_instance("Human('abel')")
        one_shot = chase(
            theory, base, budget=ChaseBudget(max_rounds=4), backend="columnar"
        )
        prefix = chase(
            theory, base, budget=ChaseBudget(max_rounds=2), backend="columnar"
        )
        resumed = resume(prefix, 2, backend="columnar")
        assert resumed.instance == one_shot.instance
        assert resumed.round_added == one_shot.round_added
        for name in EXACT_COUNTERS:
            assert resumed.stats.counters[name] == one_shot.stats.counters[name]

    def test_resume_crosses_backends(self):
        # A memory prefix resumed columnar (and vice versa) lands on the
        # same chase — the kernels agree mid-run, not just from round 0.
        theory = parse_theory(self.THEORY)
        base = parse_instance("Human('abel')")
        reference = chase(theory, base, budget=ChaseBudget(max_rounds=4))
        prefix_mem = chase(
            theory, base, budget=ChaseBudget(max_rounds=2), backend="memory"
        )
        assert resume(prefix_mem, 2, backend="columnar").instance == reference.instance
        prefix_col = chase(
            theory, base, budget=ChaseBudget(max_rounds=2), backend="columnar"
        )
        assert resume(prefix_col, 2, backend="memory").instance == reference.instance


class TestColumnarTelemetry:
    def test_counters_populated(self):
        result = chase(
            example42_tc(),
            edge_cycle(4),
            budget=ChaseBudget(max_rounds=6),
            backend="columnar",
        )
        counters = result.stats.counters
        assert counters["columnar.rounds"] > 0
        assert counters["columnar.rules"] > 0
        assert counters["columnar.matches"] == counters["chase.matches"]
        assert counters["columnar.atoms_produced"] == counters["chase.atoms_produced"]
        assert "columnar.fallback_rules" not in counters
        assert counters["hom.nodes"] > 0  # join effort reported as hom.*

    def test_memory_backend_has_no_columnar_counters(self):
        result = chase(
            example42_tc(),
            edge_cycle(4),
            budget=ChaseBudget(max_rounds=6),
            backend="memory",
        )
        assert not any(
            name.startswith("columnar.") for name in result.stats.counters
        )


class TestResolveBackend:
    def test_registry_names(self):
        assert BACKEND_NAMES == ("memory", "columnar", "sqlite")

    def test_default(self):
        assert resolve_backend(None).name == "memory"
        assert resolve_backend(None, default="columnar").name == "columnar"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="nosql"):
            resolve_backend("nosql")

    def test_path_only_for_sqlite(self):
        assert resolve_backend("sqlite", "/tmp/facts.db").path == "/tmp/facts.db"
        for name in ("memory", "columnar"):
            with pytest.raises(ValueError, match="database path"):
                resolve_backend(name, "/tmp/facts.db")

    def test_allowed_subset_with_hint(self):
        with pytest.raises(ValueError, match="chase_into_store"):
            resolve_backend(
                "sqlite",
                allowed=("memory", "columnar"),
                hint="a SQLite-backed chase runs through chase_into_store",
            )

    def test_chase_rejects_sqlite(self):
        theory = parse_theory("P(x) -> Q(x)")
        with pytest.raises(ValueError, match="chase_into_store"):
            chase(theory, parse_instance("P('a')"), backend="sqlite")

    def test_answer_rejects_unknown(self):
        theory = parse_theory("P(x) -> Q(x)")
        with pytest.raises(ValueError, match="backend"):
            answer(
                theory,
                parse_query("q(x) := Q(x)"),
                parse_instance("P('a')"),
                backend="postgres",
            )


class TestColumnarQueryEvaluation:
    THEORY = "Trusted(x) -> Admitted(x)\nAdmitted(x), Sponsor(x, y) -> Vouched(y)"
    INSTANCE = "Trusted('a'), Sponsor('a','b'), Admitted('c')"

    def test_ucq_matches_object_evaluation(self):
        theory = parse_theory(self.THEORY)
        instance = parse_instance(self.INSTANCE)
        result = rewrite(theory, parse_query("q(v) := Vouched(v)"))
        assert result.complete
        with ColumnarStore(instance) as store:
            columnar = evaluate_ucq_columnar(result.ucq, store)
        assert columnar == evaluate_ucq(result.ucq, instance)

    def test_boolean_query(self):
        instance = parse_instance(self.INSTANCE)
        cq = parse_query("q() := Trusted(x), Sponsor(x, y)")
        with ColumnarStore(instance) as store:
            assert evaluate_ucq_columnar(cq, store) == {()}
            absent = parse_query("q() := Sponsor(x, x)")
            assert evaluate_ucq_columnar(absent, store) == set()

    def test_unknown_constant_short_circuits(self):
        # A query constant the store never interned cannot match.
        with ColumnarStore(parse_instance("P('a')")) as store:
            query = parse_query("q(x) := P(x), Q('ghost')")
            assert evaluate_ucq_columnar(query, store) == set()

    def test_answer_backend_equivalence_complete(self):
        theory = parse_theory(self.THEORY)
        instance = parse_instance(self.INSTANCE)
        query = parse_query("q(v) := Admitted(v)")
        expected = answer(theory, query, instance, backend="memory")
        assert answer(theory, query, instance, backend="columnar") == expected
        assert answer(theory, query, instance, backend="sqlite") == expected

    def test_answer_backend_equivalence_incomplete(self):
        # Cut the rewriting short so the columnar backend takes the
        # session's one materialization fallback.
        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        instance = parse_instance("E('a','b'), E('b','c'), E('c','d')")
        query = parse_query("q(x, z) := E(x, z)")
        budget = RewritingBudget(max_steps=1)
        assert not rewrite(theory, query, budget).complete
        expected = answer(theory, query, instance, backend="memory", budget=budget)
        got = answer(theory, query, instance, backend="columnar", budget=budget)
        assert got == expected


class TestSessionColumnarStrategy:
    def test_strategy_matches_rewrite(self):
        theory = parse_theory("Trusted(x) -> Admitted(x)")
        instance = parse_instance("Trusted('a'), Admitted('b')")
        query = parse_query("q(v) := Admitted(v)")
        session = OMQASession(theory)
        assert session.answer(query, instance, strategy="columnar") == session.answer(
            query, instance, strategy="rewrite"
        )

    def test_store_cached_by_content(self):
        theory = parse_theory("Trusted(x) -> Admitted(x)")
        instance = parse_instance("Trusted('a')")
        query = parse_query("q(v) := Admitted(v)")
        session = OMQASession(theory)
        session.answer(query, instance, strategy="columnar")
        session.answer(query, instance, strategy="columnar")
        info = session.cache_info()["columnar"]
        assert info == {"hits": 1, "misses": 1, "entries": 1, "delta_hits": 0}
        # A different instance reloads (miss), same content hits again.
        session.answer(query, parse_instance("Trusted('b')"), strategy="columnar")
        assert session.cache_info()["columnar"]["misses"] == 2

    def test_strategy_falls_back_to_materialization(self):
        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        instance = parse_instance("E('a','b'), E('b','c'), E('c','d')")
        query = parse_query("q(x, z) := E(x, z)")
        session = OMQASession(
            theory, rewriting_budget=RewritingBudget(max_steps=1)
        )
        assert not session.prepare(query).complete
        columnar = session.answer(query, instance, strategy="columnar")
        materialized = session.answer(query, instance, strategy="materialize")
        assert columnar == materialized
        assert session.cache_info()["chase"]["entries"] == 1
