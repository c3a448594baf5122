"""Tests for repro.incremental (delta adds, DRed deletes) and the
store-backed counterpart ``update_store_chase``."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import incremental_update
import repro.chase.engine
import repro.logic.homomorphism
from repro.chase import ChaseBudget, chase
from repro.chase.provenance import dependents_index
from repro.chase.skolem import apply_rule, skolemize
from repro.logic import Instance, parse_instance, parse_theory
from repro.logic.atoms import Atom
from repro.logic.signature import Predicate
from repro.logic.terms import Constant
from repro.storage import (
    SQLiteStore,
    StoreChaseError,
    chase_into_store,
    content_digest,
    instance_digest,
    update_store_chase,
)

TC = parse_theory(
    "E(x, y), E(y, z) -> E(x, z)\n"
    "E(x, y) -> exists m. M(x, m)\n"
    "M(x, m) -> H(x)",
    name="tc-exists",
)
BUDGET = ChaseBudget(max_rounds=40, max_atoms=200_000)


def fact(text: str) -> Atom:
    return next(iter(parse_instance(text)))


def scratch_digest(theory, base) -> str:
    run = chase(theory, Instance(sorted(base, key=repr)), budget=BUDGET)
    assert run.terminated
    return content_digest(run.instance)


# ----------------------------------------------------------------------
# In-memory engine
# ----------------------------------------------------------------------
class TestInMemoryUpdates:
    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_addition_matches_scratch(self, backend):
        base = parse_instance("E(a, b). E(b, c).")
        run = chase(TC, base, budget=BUDGET, backend=backend)
        outcome = incremental_update(
            run, add=[fact("E(c, d).")], budget=BUDGET, backend=backend
        )
        assert outcome.changed and outcome.result.terminated
        assert content_digest(outcome.result.instance) == scratch_digest(
            TC, set(base) | {fact("E(c, d).")}
        )

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_retraction_matches_scratch(self, backend):
        base = parse_instance("E(a, b). E(b, c). E(c, d).")
        run = chase(TC, base, budget=BUDGET, backend=backend)
        outcome = incremental_update(
            run, retract=[fact("E(b, c).")], budget=BUDGET, backend=backend
        )
        assert outcome.result.terminated
        assert content_digest(outcome.result.instance) == scratch_digest(
            TC, set(base) - {fact("E(b, c).")}
        )

    def test_combined_add_retract(self):
        base = parse_instance("E(a, b). E(b, c).")
        run = chase(TC, base, budget=BUDGET)
        outcome = incremental_update(
            run,
            add=[fact("E(c, d)."), fact("E(d, a).")],
            retract=[fact("E(a, b).")],
            budget=BUDGET,
        )
        expected = (set(base) - {fact("E(a, b).")}) | {
            fact("E(c, d)."),
            fact("E(d, a)."),
        }
        assert content_digest(outcome.result.instance) == scratch_digest(TC, expected)

    def test_multi_derivation_fact_survives(self):
        # Q(a) is derivable from both P(a) and R(a); retracting P(a) must
        # over-delete it (single recorded derivation) then bring it back.
        theory = parse_theory("P(x) -> Q(x)\nR(x) -> Q(x)", name="two-roads")
        base = parse_instance("P(a). R(a).")
        run = chase(theory, base, budget=BUDGET)
        outcome = incremental_update(run, retract=[fact("P(a).")], budget=BUDGET)
        assert fact("Q(a).") in outcome.result.instance
        assert content_digest(outcome.result.instance) == scratch_digest(
            theory, {fact("R(a).")}
        )

    def test_cascade_delete(self):
        theory = parse_theory("A(x) -> B(x)\nB(x) -> C(x)", name="chain")
        run = chase(theory, parse_instance("A(a)."), budget=BUDGET)
        outcome = incremental_update(run, retract=[fact("A(a).")], budget=BUDGET)
        assert len(outcome.result.instance) == 0
        assert outcome.overdeleted == 2  # B(a), C(a) beyond the retraction

    def test_base_fact_also_derivable_is_retractable(self):
        # E(a, c) is both base and derivable via transitivity: retracting
        # it must succeed, and the fact reappears as a derived atom.
        base = parse_instance("E(a, b). E(b, c). E(a, c).")
        run = chase(TC, base, budget=BUDGET)
        outcome = incremental_update(run, retract=[fact("E(a, c).")], budget=BUDGET)
        assert fact("E(a, c).") in outcome.result.instance  # re-derived
        assert content_digest(outcome.result.instance) == scratch_digest(
            TC, set(base) - {fact("E(a, c).")}
        )

    def test_noop_keeps_instance_and_counts(self):
        base = parse_instance("E(a, b). E(b, c).")
        run = chase(TC, base, budget=BUDGET)
        outcome = incremental_update(
            run,
            add=[fact("E(a, b).")],  # already base
            retract=[fact("E(x1, x2).")],  # absent
            budget=BUDGET,
        )
        assert not outcome.changed
        assert outcome.result.instance is run.instance
        assert outcome.stats.counters["delta.noops"] == 1

    def test_rejects_unterminated_input(self):
        run = chase(TC, parse_instance("E(a, b). E(b, c)."), budget=ChaseBudget(max_rounds=1))
        assert not run.terminated
        with pytest.raises(ValueError):
            incremental_update(run, add=[fact("E(c, d).")])

    def test_rejects_add_retract_overlap(self):
        run = chase(TC, parse_instance("E(a, b)."), budget=BUDGET)
        with pytest.raises(ValueError):
            incremental_update(
                run, add=[fact("E(c, d).")], retract=[fact("E(c, d).")]
            )

    def test_rejects_derived_retract(self):
        base = parse_instance("E(a, b). E(b, c).")
        run = chase(TC, base, budget=BUDGET)
        with pytest.raises(ValueError, match="derived"):
            incremental_update(run, retract=[fact("E(a, c).")])  # derived only

    def test_universal_heads_refuse_retraction_allow_addition(self):
        theory = parse_theory("P(x) -> Q(x, y)", name="universal-head")
        run = chase(theory, parse_instance("P(a)."), budget=BUDGET)
        with pytest.raises(ValueError, match="universal head"):
            incremental_update(run, retract=[fact("P(a).")])
        outcome = incremental_update(run, add=[fact("P(b).")], budget=BUDGET)
        assert content_digest(outcome.result.instance) == scratch_digest(
            theory, {fact("P(a)."), fact("P(b).")}
        )

    def test_telemetry_counters(self):
        base = parse_instance("E(a, b). E(b, c). E(c, d).")
        run = chase(TC, base, budget=BUDGET)
        outcome = incremental_update(
            run, add=[fact("E(d, e).")], retract=[fact("E(a, b).")], budget=BUDGET
        )
        counters = outcome.stats.counters
        assert counters["delta.updates"] == 1
        assert counters["delta.added_base"] == 1
        assert counters["delta.retracted_base"] == 1
        assert counters["delta.rounds"] >= 1
        assert "delta" in outcome.stats.phases


def check_maintained(result, base) -> None:
    """A maintained result against a from-scratch chase and its invariants.

    The instance equals the chase of ``base``; carried state (absent
    only when no update changed anything yet) holds a provenance index
    equal to a fresh :func:`dependents_index` and, if any, a columnar
    mirror of exactly the instance; no base fact has a recorded
    derivation; and every recorded parent is in the instance at a
    strictly shallower round than its child.
    """
    assert result.terminated
    assert content_digest(result.instance) == scratch_digest(result.theory, base)
    carried = result._maintenance
    if carried is not None:
        assert carried.dependents == dependents_index(result.derivations)
        if carried.mirror is not None:
            assert set(carried.mirror) == set(result.instance)
    assert not any(item in result.base for item in result.derivations)
    for child, derivation in result.derivations.items():
        depth = result.depth_of(child)
        assert depth is not None
        for parent in derivation.body_image():
            parent_depth = result.depth_of(parent)
            assert parent_depth is not None and parent_depth < depth


# A theory with multi-derivation heads (transitivity, two roads to H),
# a Skolem rule, and a rule that fires only on self-loops.
LOOPS = parse_theory(
    "E(x, y), E(y, z) -> E(x, z)\n"
    "E(x, y) -> exists m. M(x, m)\n"
    "M(x, m) -> H(x)\n"
    "E(x, x) -> L(x)\n"
    "L(x) -> H(x)",
    name="loops",
)


class TestCarriedState:
    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_self_loop_parent_used_twice(self, backend):
        # P(a, a) and P(a, b) consume E(a, a) twice in one body: the
        # provenance index must hold one edge per (parent, child), or
        # removing a derivation's edges leaves a stale one behind.
        theory = parse_theory(
            "E(x, y), E(y, z) -> P(x, z)\nP(x, y) -> Q(x)", name="twice"
        )
        base = set(parse_instance("E(a, a). E(a, b). E(b, c)."))
        result = chase(theory, Instance(base), budget=BUDGET, backend=backend)
        loop, edge = fact("E(a, a)."), fact("E(b, c).")
        assert dependents_index(result.derivations)[loop] == {
            fact("P(a, a)."),
            fact("P(a, b)."),
        }
        for add, retract in (([], [loop]), ([], [edge]), ([edge], [])):
            result = incremental_update(
                result, add=add, retract=retract, budget=BUDGET, backend=backend
            ).result
            base = (base - set(retract)) | set(add)
            assert result._maintenance is not None
            check_maintained(result, base)

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    @pytest.mark.parametrize("first", [0, 1])
    def test_two_updates_of_one_input(self, backend, first):
        # The carried state moves to the first update's result; the
        # second update of the same input rebuilds it, and the input
        # itself never changes.
        base = set(parse_instance("E(a, b). E(b, c). E(c, a). E(c, d)."))
        start = chase(TC, Instance(base), budget=BUDGET, backend=backend)
        shared = incremental_update(
            start, add=[fact("E(d, e).")], budget=BUDGET, backend=backend
        ).result
        base |= {fact("E(d, e).")}
        assert shared._maintenance is not None
        digest = instance_digest(shared.instance)
        derivations = dict(shared.derivations)
        round_added = list(shared.round_added)
        updates = [
            ([fact("E(e, a).")], [fact("E(b, c).")]),
            ([], [fact("E(c, a)."), fact("E(a, b).")]),
        ]
        for add, retract in (updates[first], updates[1 - first]):
            outcome = incremental_update(
                shared, add=add, retract=retract, budget=BUDGET, backend=backend
            )
            assert outcome.result._maintenance is not None
            check_maintained(outcome.result, (base - set(retract)) | set(add))
            assert shared._maintenance is None
        assert instance_digest(shared.instance) == digest
        assert shared.derivations == derivations
        assert shared.round_added == round_added

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_noop_passes_the_slot_through(self, backend):
        base = parse_instance("E(a, b). E(b, c).")
        run = chase(TC, base, budget=BUDGET, backend=backend)
        maintained = incremental_update(
            run, add=[fact("E(c, d).")], budget=BUDGET, backend=backend
        ).result
        carried = maintained._maintenance
        assert carried is not None
        assert (carried.mirror is not None) == (backend == "columnar")
        noop = incremental_update(
            maintained, add=[fact("E(c, d).")], budget=BUDGET, backend=backend
        ).result
        assert noop._maintenance is carried
        assert maintained._maintenance is None

    def test_chase_sets_no_slot(self):
        assert chase(TC, parse_instance("E(a, b)."), budget=BUDGET)._maintenance is None

    def test_retraction_probes_instead_of_a_full_round(self):
        # Nothing in the cone is re-derivable: the probes find no hit,
        # so no seed and no chase round at all.
        theory = parse_theory("A(x) -> B(x)\nB(x) -> C(x)", name="chain")
        run = chase(theory, parse_instance("A(a). A(b)."), budget=BUDGET)
        outcome = incremental_update(run, retract=[fact("A(a).")], budget=BUDGET)
        counters = outcome.stats.counters
        assert counters["delta.rederive_probes"] == 2  # B(a), C(a)
        assert counters["delta.rounds"] == 0 and counters["chase.matches"] == 0
        assert outcome.rounds_run == 0

    def test_rederived_atoms_return_as_one_round(self):
        theory = parse_theory("P(x) -> Q(x)\nR(x) -> Q(x)\nQ(x) -> S(x)", name="roads")
        run = chase(theory, parse_instance("P(a). R(a)."), budget=BUDGET)
        outcome = incremental_update(run, retract=[fact("P(a).")], budget=BUDGET)
        result = outcome.result
        check_maintained(result, {fact("R(a).")})
        # Q(a) comes back from its probe; S(a) then from the delta round.
        assert outcome.rederived == 2
        assert result.depth_of(fact("S(a).")) > result.depth_of(fact("Q(a)."))


# ----------------------------------------------------------------------
# Property-based equivalence: maintained == from-scratch, every step
# ----------------------------------------------------------------------
E = Predicate("E", 2)
consts = st.integers(min_value=0, max_value=6).map(lambda i: Constant(f"c{i}"))
edges = st.tuples(consts, consts).map(lambda pair: Atom(E, pair))
bases = st.lists(edges, min_size=2, max_size=8).map(
    lambda facts: sorted(set(facts), key=repr)
)
scripts = st.lists(
    st.tuples(st.sampled_from(["add", "retract"]), st.lists(edges, min_size=1, max_size=3)),
    min_size=1,
    max_size=4,
)
TAGGED = parse_theory(
    "E(x, y) -> T(x, y)\n"
    "T(x, y), E(y, z) -> T(x, z)\n"
    "T(x, y) -> exists w. Tag(y, w)\n"
    "Tag(y, w), E(y, z) -> Seen(z)",
    name="tagged",
)
# A small domain, so self-loops and shared endpoints are common.
small = st.integers(min_value=0, max_value=3).map(lambda i: Constant(f"c{i}"))
loop_edges = st.tuples(small, small).map(lambda pair: Atom(E, pair))


def _step(op, facts, current):
    """Normalize one script step against the current base."""
    if op == "add":
        return list(facts), []
    hits = [item for item in facts if item in current]
    if not hits and current:
        hits = sorted(current, key=repr)[:1]
    return [], hits


class TestPropertyEquivalence:
    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    @settings(max_examples=15, deadline=None)
    @given(base=bases, script=scripts)
    def test_engine_updates_match_scratch(self, backend, base, script):
        result = chase(TC, Instance(base), budget=BUDGET, backend=backend)
        current = set(base)
        for op, facts in script:
            add, retract = _step(op, facts, current)
            outcome = incremental_update(
                result, add=add, retract=retract, budget=BUDGET, backend=backend
            )
            result = outcome.result
            current = (current - set(retract)) | set(add)
            assert result.terminated
            assert content_digest(result.instance) == scratch_digest(TC, current)

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    @settings(max_examples=25, deadline=None)
    @given(
        base=st.lists(loop_edges, min_size=2, max_size=7),
        script=st.lists(
            st.tuples(
                st.lists(loop_edges, max_size=2), st.lists(loop_edges, max_size=2)
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_carried_state_invariants(self, backend, base, script):
        current = set(base)
        result = chase(
            LOOPS, Instance(sorted(current, key=repr)), budget=BUDGET, backend=backend
        )
        for add, retract in script:
            add = set(add) - set(retract)
            retract = set(retract) & current
            result = incremental_update(
                result, add=add, retract=retract, budget=BUDGET, backend=backend
            ).result
            current = (current - retract) | add
            check_maintained(result, current)

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    @settings(max_examples=25, deadline=None)
    @given(
        base=st.lists(loop_edges, min_size=2, max_size=7),
        script=st.lists(
            st.tuples(
                st.lists(loop_edges, max_size=2), st.lists(loop_edges, max_size=2)
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_skolem_carried_state_invariants(self, backend, base, script):
        # The columnar probes read the carried mirror: a Skolem theory
        # checks it holds exactly the instance after every step.
        current = set(base)
        result = chase(
            TAGGED, Instance(sorted(current, key=repr)), budget=BUDGET, backend=backend
        )
        for add, retract in script:
            add = set(add) - set(retract)
            retract = set(retract) & current
            result = incremental_update(
                result, add=add, retract=retract, budget=BUDGET, backend=backend
            ).result
            current = (current - retract) | add
            check_maintained(result, current)

    @staticmethod
    def _check_store_updates(theory, base, script):
        """After every step: store digest == scratch == incremental_update."""
        result = chase(theory, Instance(base), budget=BUDGET)
        with SQLiteStore(":memory:") as store:
            chase_into_store(theory, Instance(base), store, budget=BUDGET)
            current = set(base)
            for op, facts in script:
                add, retract = _step(op, facts, current)
                update_store_chase(
                    store, theory, add=add, retract=retract, budget=BUDGET
                )
                result = incremental_update(
                    result, add=add, retract=retract, budget=BUDGET
                ).result
                current = (current - set(retract)) | set(add)
                assert store.digest() == scratch_digest(theory, current)
                assert store.digest() == content_digest(result.instance)

    @settings(max_examples=10, deadline=None)
    @given(base=bases, script=scripts)
    def test_store_updates_match_scratch(self, base, script):
        self._check_store_updates(TC, base, script)

    @settings(max_examples=10, deadline=None)
    @given(base=bases, script=scripts)
    def test_skolem_store_updates_match_scratch(self, base, script):
        # A Skolem head probed through its term's children, and a
        # two-atom body joining a Skolem fact with a base edge.
        self._check_store_updates(TAGGED, base, script)


# ----------------------------------------------------------------------
# Re-derive probes: the object search and the columnar kernel
# ----------------------------------------------------------------------
# name -> (theory, base, a first add, the update's add and retraction,
# its probe count, the atoms its probes bring back).  Each re-derivable
# atom's recorded derivation is fixed by theory order or by the first
# add, so the cone does not depend on the hash seed.
ROADS = parse_theory("P(x) -> Q(x)\nR(x) -> Q(x)\nQ(x) -> S(x)", name="roads")
PROBE_CASES = {
    # Tag(b, f(b)) was derived from T(a, b) alone; after E(d, b) comes
    # in, its probe binds y through the Skolem term's child and hits
    # T(d, b).
    "skolem": (
        TAGGED,
        "E(a, b). E(b, c).",
        ["E(d, b)."],
        [],
        ["E(a, b)."],
        6,  # T(a, b) and T(a, c) twice, Tag(b, f(b)) and Seen(c) once
        {"Tag(b,f(b))"},
    ),
    # R(a) came from P(a) (the first rule); the second rule's body
    # constant keeps L(c, spoke) out of its witness.
    "body-constant": (
        parse_theory(
            "P(x) -> R(x)\nE(x, y), L(y, 'hub') -> R(x)\nR(x) -> S(x)",
            name="hub",
        ),
        "P(a). E(a, b). L(b, hub). E(a, c). L(c, spoke).",
        [],
        [],
        ["P(a)."],
        3,  # R(a) under both heads, S(a) once
        {"R(a)"},
    ),
    # The diagonal head R(x, x) binds R(a, a) and rejects R(a, b).
    "repeated-head-variable": (
        parse_theory(
            "E(x, y) -> R(x, y)\nN(x) -> R(x, x)\nR(x, y) -> S(x)", name="diag"
        ),
        "E(a, a). E(a, b). N(a).",
        [],
        [],
        ["E(a, a).", "E(a, b)."],
        4,  # R(a, a) under both heads, R(a, b) and S(a) once
        {"R(a,a)"},
    ),
    # The only witness of Q(a) is a fact the same update adds: the
    # probes see the survivors plus the new base, carried mirror too.
    "new-base-witness": (
        ROADS,
        "P(a). P(b).",
        ["R(b)."],
        ["R(a)."],
        ["P(a)."],
        3,  # Q(a) under both heads, S(a) once
        {"Q(a)"},
    ),
}


def check_derivation(result, item) -> None:
    """``item``'s recorded derivation: the skolemized head under sigma
    gives ``item``, and the body image lies in the instance."""
    derivation = result.derivations[item]
    assert item in apply_rule(skolemize(derivation.rule), derivation.mapping())
    assert all(parent in result.instance for parent in derivation.body_image())


def _shape(item) -> str:
    """``item``'s text with each Skolem functor written ``f``."""
    return re.sub(r"f_\w+\(", "f(", str(item))


class TestProbeBackends:
    @pytest.mark.parametrize("case", sorted(PROBE_CASES))
    def test_backends_probe_alike(self, case):
        theory, text, first, add, retract, probes, back = PROBE_CASES[case]
        base = set(parse_instance(text))
        run = chase(theory, Instance(sorted(base, key=repr)), budget=BUDGET)
        if first:
            # Leaves a carried mirror, which the columnar update takes.
            run = incremental_update(
                run, add=[fact(item) for item in first], budget=BUDGET
            ).result
            base |= {fact(item) for item in first}
        add = [fact(item) for item in add]
        retract = [fact(item) for item in retract]
        seen = {}
        for backend in ("columnar", "memory"):
            outcome = incremental_update(
                run, add=add, retract=retract, budget=BUDGET, backend=backend
            )
            result = outcome.result
            check_maintained(result, (base - set(retract)) | set(add))
            # The probes' hits are the round after the surviving rounds.
            probed = result.round_added[len(run.round_added)]
            for item in probed:
                check_derivation(result, item)
            delta = {
                name: count
                for name, count in outcome.stats.counters.items()
                if name.startswith("delta.")
            }
            seen[backend] = (delta, probed)
        # Over-deleted, probes, re-derived and rounds alike: a probe that
        # missed a witness would leave its atom to a later round.
        assert seen["memory"] == seen["columnar"]
        delta, probed = seen["columnar"]
        assert delta["delta.rederive_probes"] == probes
        assert {_shape(item) for item in probed} == back

    @pytest.mark.parametrize("carried", [False, True])
    def test_columnar_probes_run_no_object_search(self, monkeypatch, carried):
        # Q(a) was derived from P(a) (theory order); its probe finds R(a).
        base = {fact("P(a)."), fact("R(a).")}
        plain = chase(ROADS, Instance(sorted(base, key=repr)), budget=BUDGET)
        run = plain
        if carried:
            run = incremental_update(plain, add=[fact("P(b).")], budget=BUDGET).result
            base.add(fact("P(b)."))
            assert run._maintenance.mirror is not None

        def refuse(*args, **kwargs):
            raise AssertionError("object homomorphism search on the kernel path")

        monkeypatch.setattr(repro.chase.engine, "iter_pattern_homomorphisms", refuse)
        monkeypatch.setattr(repro.logic.homomorphism, "_search", refuse)
        with pytest.raises(AssertionError, match="object homomorphism search"):
            incremental_update(
                plain, retract=[fact("P(a).")], budget=BUDGET, backend="memory"
            )
        outcome = incremental_update(
            run, retract=[fact("P(a).")], budget=BUDGET, backend="columnar"
        )
        monkeypatch.undo()
        assert outcome.stats.counters["delta.rederive_probes"] == 3
        assert outcome.rederived == 2  # Q(a) from its probe, S(a) from a round
        check_maintained(outcome.result, base - {fact("P(a).")})


# ----------------------------------------------------------------------
# Store-backed updates
# ----------------------------------------------------------------------
BODYLESS = parse_theory(
    "true -> exists x. R(x, x)\nE(x, y) -> T(x, y)", name="bodyless"
)


class TestBodylessProductions:
    """A fact produced by a bodyless rule is derived, never base."""

    def _skolem_fact(self, run):
        return next(item for item in run.instance if item.predicate.name == "R")

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_engine_refuses_retraction(self, backend):
        base = parse_instance("E(a, b).")
        run = chase(BODYLESS, base, budget=BUDGET, backend=backend)
        with pytest.raises(ValueError, match="derived"):
            incremental_update(run, retract=[self._skolem_fact(run)], backend=backend)

    def test_store_refuses_retraction_untouched(self):
        base = parse_instance("E(a, b).")
        run = chase(BODYLESS, base, budget=BUDGET)
        with SQLiteStore(":memory:") as store:
            chase_into_store(BODYLESS, base, store, budget=BUDGET)
            before = store.digest()
            with pytest.raises(ValueError, match="derived"):
                update_store_chase(store, BODYLESS, retract=[self._skolem_fact(run)])
            assert store.stats.counters["delta.retracted_base"] == 0
            assert store.digest() == before

    def test_store_retracting_base_keeps_the_bodyless_fact(self):
        with SQLiteStore(":memory:") as store:
            chase_into_store(
                BODYLESS, parse_instance("E(a, b). E(b, c)."), store, budget=BUDGET
            )
            update_store_chase(store, BODYLESS, retract=[fact("E(a, b).")])
            assert store.digest() == scratch_digest(BODYLESS, {fact("E(b, c).")})


class TestStoreUpdates:
    def test_round_trip_add_retract(self):
        base = parse_instance("E(a, b). E(b, c).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            update_store_chase(store, TC, add=[fact("E(c, d).")], budget=BUDGET)
            assert store.digest() == scratch_digest(
                TC, set(base) | {fact("E(c, d).")}
            )
            update_store_chase(store, TC, retract=[fact("E(b, c).")], budget=BUDGET)
            assert store.digest() == scratch_digest(
                TC, (set(base) | {fact("E(c, d).")}) - {fact("E(b, c).")}
            )

    def test_rejects_derived_retract(self):
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, parse_instance("E(a, b). E(b, c)."), store, budget=BUDGET)
            with pytest.raises(ValueError, match="derived"):
                update_store_chase(store, TC, retract=[fact("E(a, c).")])

    def test_universal_heads_refuse_retraction_allow_addition(self):
        # The store chase runs universal heads now; retraction is refused
        # with incremental_update's own ValueError, the store untouched.
        theory = parse_theory("P(x) -> Q(x, y)", name="universal-head")
        with SQLiteStore(":memory:") as store:
            chase_into_store(theory, parse_instance("P(a)."), store, budget=BUDGET)
            before = store.digest()
            with pytest.raises(ValueError, match="universal head"):
                update_store_chase(store, theory, retract=[fact("P(a).")])
            assert store.digest() == before
            update_store_chase(store, theory, add=[fact("P(b).")], budget=BUDGET)
            assert store.digest() == scratch_digest(
                theory, {fact("P(a)."), fact("P(b).")}
            )

    def test_base_facts_never_gain_supports(self):
        # E(a, c) is base AND re-derivable: the support recorder must
        # keep it support-free so the DRed cascade cannot delete it.
        base = parse_instance("E(a, b). E(b, c). E(a, c). E(c, d).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            update_store_chase(store, TC, retract=[fact("E(a, b).")], budget=BUDGET)
            assert fact("E(a, c).") in store
            assert store.digest() == scratch_digest(
                TC, set(base) - {fact("E(a, b).")}
            )

    def test_promoted_fact_survives_parent_retraction(self):
        # Adding an already-derived fact promotes it to base: it must
        # survive the retraction of the facts that once derived it.
        base = parse_instance("E(a, b). E(b, c).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            update_store_chase(store, TC, add=[fact("E(a, c).")], budget=BUDGET)
            update_store_chase(store, TC, retract=[fact("E(a, b).")], budget=BUDGET)
            assert fact("E(a, c).") in store
            assert store.digest() == scratch_digest(
                TC, {fact("E(b, c)."), fact("E(a, c).")}
            )

    def test_promoted_fact_survives_retraction_in_the_same_update(self):
        # The cone walk must not enter a fact this very update promotes.
        base = parse_instance("E(a, b). E(b, c).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            update_store_chase(
                store, TC, add=[fact("E(a, c).")], retract=[fact("E(a, b).")],
                budget=BUDGET,
            )
            assert fact("E(a, c).") in store
            assert store.digest() == scratch_digest(
                TC, {fact("E(b, c)."), fact("E(a, c).")}
            )

    def test_refuses_pre_supports_databases(self):
        # Builds before support tracking stamped their state
        # repro-storechase/1 (with storechase.supports=0); a DRed
        # retraction needs support edges, so the schema check refuses
        # such a store before anything is written.
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, parse_instance("E(a, b). E(b, c)."), store, budget=BUDGET)
            store.set_meta("storechase.schema", "repro-storechase/1")
            store.set_meta("storechase.supports", "0")
            digest = store.digest()
            with pytest.raises(StoreChaseError, match="unsupported store-chase schema"):
                update_store_chase(store, TC, retract=[fact("E(a, b).")])
            assert store.digest() == digest
            assert store.get_meta("storechase.schema") == "repro-storechase/1"

    def test_noop_update(self):
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, parse_instance("E(a, b)."), store, budget=BUDGET)
            digest = store.digest()
            result = update_store_chase(
                store, TC, add=[fact("E(a, b).")], retract=[fact("E(x1, x2).")]
            )
            assert store.digest() == digest
            assert store.stats.counters["delta.noops"] >= 1
            assert result.terminated

    def test_counters_and_supports_accounting(self):
        base = parse_instance("E(a, b). E(b, c). E(c, d).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            assert store.support_count() > 0
            update_store_chase(store, TC, retract=[fact("E(a, b).")], budget=BUDGET)
            counters = store.stats.counters
            assert counters["delta.updates"] == 1
            assert counters["delta.retracted_base"] == 1
            assert counters["delta.overdeleted"] >= 1
            # Nothing in the cone has another derivation: the probes all
            # miss, so no seed and no round, as in memory.
            assert counters["delta.rederive_probes"] >= 1
            assert counters["delta.rounds"] == 0

    @pytest.mark.parametrize(
        "change",
        [{"add": ["E(c, d).", "E(c, d)."]}, {"retract": ["E(a, b).", "E(a, b)."]}],
        ids=["add", "retract"],
    )
    def test_duplicated_inputs_count_like_incremental_update(self, change):
        # A fact listed twice is one change, in both engines' counters.
        change = {key: [fact(text) for text in texts] for key, texts in change.items()}
        base = parse_instance("E(a, b). E(b, c).")
        memory = incremental_update(
            chase(TC, base, budget=BUDGET), budget=BUDGET, **change
        ).stats.counters
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            before = dict(store.stats.counters)
            update_store_chase(store, TC, budget=BUDGET, **change)
            counters = store.stats.counters
            stored = {name: counters[name] - before.get(name, 0) for name in counters}
        names = {
            name for name in (*memory, *stored) if name.startswith("delta.")
        }
        assert {name: stored.get(name, 0) for name in names} == {
            name: memory[name] for name in names
        }
        assert memory["delta.added_base"] + memory["delta.retracted_base"] == 1

    def test_probe_hit_seeds_semi_naive_rounds(self):
        # E(a, c) keeps the alternative path a -> x -> c: its probe hits,
        # and the hit seeds the semi-naive rounds.
        base = parse_instance("E(a, b). E(b, c). E(c, d). E(a, x). E(x, c).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            update_store_chase(store, TC, retract=[fact("E(a, b).")], budget=BUDGET)
            counters = store.stats.counters
            assert counters["delta.rederived"] >= 1
            assert counters["delta.rounds"] >= 1
            assert fact("E(a, c).") in store
            assert store.digest() == scratch_digest(TC, set(base) - {fact("E(a, b).")})


# ----------------------------------------------------------------------
# Reproducible search work
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parent.parent / "src"

# Moves four edges of a chorded 8-cycle out and back under TC, then
# prints the hash of one constant and the summed ``hom.*`` counters.
# The source tree comes in as argv[1].
UPDATE_WORKLOAD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro import incremental_update
from repro.chase import ChaseBudget, chase
from repro.logic import Constant, parse_instance, parse_theory

theory = parse_theory(
    "E(x, y), E(y, z) -> E(x, z)\\n"
    "E(x, y) -> exists m. M(x, m)\\n"
    "M(x, m) -> H(x)"
)
edges = [f"E(n{i}, n{(i + 1) % 8})" for i in range(8)]
edges += [f"E(n{i}, n{(i * 5 + 2) % 8})" for i in range(0, 8, 3)]
base = parse_instance(". ".join(edges))
budget = ChaseBudget(max_rounds=40, max_atoms=200_000)
run = chase(theory, base, budget=budget)
hom = {}
for moved in sorted(base, key=repr)[:4]:
    for change in ({"retract": [moved]}, {"add": [moved]}):
        outcome = incremental_update(run, budget=budget, **change)
        run = outcome.result
        for name, count in outcome.stats.counters.items():
            if name.startswith("hom."):
                hom[name] = hom.get(name, 0) + count
print(json.dumps({"hash": hash(Constant("a")), "hom": hom}, sort_keys=True))
"""


def test_update_search_work_is_reproducible_across_processes():
    """Same hash seed, same ``hom.*`` counters: term hashes are process-free."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    reports = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", UPDATE_WORKLOAD, str(SRC)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(proc.stdout))
    first, second = reports
    assert first["hash"] == second["hash"]
    assert first["hom"]["hom.candidates_scanned"] > 0
    assert first["hom"] == second["hom"]
