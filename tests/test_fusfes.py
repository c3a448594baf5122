"""Tests for the FUS/FES machinery (Sections 6 and 8, Theorem 4)."""

from __future__ import annotations

import pytest

from repro.chase import chase, core_termination, is_model
from repro.frontier import (
    banned_terms,
    global_folding,
    h_star,
    m_f_structure,
    small_subset_cores,
    uniform_bound_profile,
)
from repro.logic import Instance, parse_instance, parse_theory
from repro.logic.instance import subsets_of_size_at_most
from repro.workloads import edge_cycle, edge_path, example28_slice, exercise23


def _fixpoint(theory, base):
    """The terminating chase of ``base`` (these fixtures are AIT)."""
    result = chase(theory, base)
    assert result.terminated
    return result


@pytest.fixture
def ait_theory():
    """A terminating (AIT) theory: full chases are finite, so every lemma
    of Section 8 is checkable exactly."""
    return parse_theory(
        """
        P(x) -> exists y. E(x, y)
        E(x, y) -> Q(y)
        """,
        name="AIT",
    )


class TestSubsetCores:
    def test_c_d_contains_base(self):
        base = edge_path(3)
        cores = small_subset_cores(exercise23(), base, bound=2)
        assert base.issubset(cores.union_of_cores)

    def test_every_witness_is_a_model(self):
        cores = small_subset_cores(exercise23(), edge_path(3), bound=2)
        for part, witness in cores.witnesses:
            assert part.issubset(witness.model)
            assert is_model(witness.model, exercise23())

    def test_k_bound_is_max_of_subset_bounds(self):
        cores = small_subset_cores(exercise23(), edge_path(3), bound=2)
        assert cores.max_core_depth == max(w.bound for _, w in cores.witnesses)

    def test_non_ct_theory_raises(self):
        theory = parse_theory("E(x, y) -> exists z. E(y, z)")
        with pytest.raises(RuntimeError):
            small_subset_cores(theory, edge_path(2), bound=1, max_depth=4)


class TestLemma35:
    def test_h_star_is_identity_on_core(self, ait_theory):
        base = parse_instance("P(a). P(b). E(a, c)")
        core, hom = h_star(ait_theory, base)
        assert is_model(core, ait_theory)
        for term in core.domain():
            assert hom[term] == term

    def test_h_star_maps_chase_into_core(self, ait_theory):
        base = parse_instance("P(a). E(a, c)")
        core, hom = h_star(ait_theory, base)
        full = _fixpoint(ait_theory, base).instance
        for term in full.domain():
            assert hom[term] in core.domain()


class TestLemma37:
    def test_m_f_is_a_model(self, ait_theory):
        """Definition 36's M_F satisfies the theory (checked exactly on a
        terminating chase)."""
        base = parse_instance("P(a). P(b)")
        full = _fixpoint(ait_theory, base).instance
        for part in subsets_of_size_at_most(base, 1):
            part_chase = _fixpoint(ait_theory, part).instance
            core, _ = h_star(ait_theory, part)
            m_f = m_f_structure(full, part_chase, core)
            assert is_model(m_f, ait_theory)
            assert base.issubset(m_f)

    def test_banned_terms_excluded(self, ait_theory):
        base = parse_instance("P(a). P(b)")
        full = _fixpoint(ait_theory, base).instance
        part = Instance([next(iter(parse_instance("P(a)")))])
        part_chase = _fixpoint(ait_theory, part).instance
        core, _ = h_star(ait_theory, part)
        banned = banned_terms(part_chase, core)
        m_f = m_f_structure(full, part_chase, core)
        assert banned.isdisjoint(m_f.domain())


class TestGlobalFolding:
    def test_folding_lands_in_c_d(self):
        """Section 8's punchline: the composed homomorphism sends every
        (small-subset-covered) term into dom(C_D)."""
        fold, cores = global_folding(exercise23(), edge_path(3), bound=2, depth=4)
        base_domain = edge_path(3).domain()
        for term in base_domain:
            assert fold[term] == term

    def test_folding_respects_base_identity(self):
        fold, _ = global_folding(exercise23(), edge_cycle(3), bound=2, depth=4)
        for term in edge_cycle(3).domain():
            assert fold[term] == term


class TestUniformBounds:
    def test_exercise_23_profile_is_flat(self):
        """Theorem 4 (via Observation 27): one constant c_T covers every
        instance of the local, core-terminating Exercise-23 theory."""
        profile = uniform_bound_profile(
            exercise23(),
            [edge_path(n) for n in (2, 3, 4, 6)] + [edge_cycle(4)],
        )
        assert profile.looks_uniform
        assert profile.uniform_bound == 2

    def test_example_28_slices_grow(self):
        """The infinite theory of Example 28 defeats uniformity: deeper
        slices need deeper chases, so no single c_T exists."""
        bounds = []
        for level in (1, 2, 3):
            theory = example28_slice(level)
            base = parse_instance(f"E{level}(a, b)")
            bounds.append(uniform_bound_profile(theory, [base]).bounds[0])
        assert bounds == [1, 2, 3]

    def test_profile_raises_without_witness(self):
        theory = parse_theory("E(x, y) -> exists z. E(y, z)")
        with pytest.raises(RuntimeError):
            uniform_bound_profile(theory, [edge_path(2)], max_depth=4)


class TestDefinition26Directly:
    def test_ubdd_enough_for_exercise_23(self):
        """Definition 26 head-on: c_T + n_at rounds suffice for every
        sampled query over every sampled instance."""
        from repro.frontier import ubdd_enough_check
        from repro.logic import parse_query

        queries = [
            parse_query("q(x) := exists y. E(x, y)"),
            parse_query("q(x, y) := E(x, y)"),
            parse_query("q(x) := exists y, z. E(x, y), E(y, z)"),
            parse_query("q() := exists x. E(x, x)"),
        ]
        instances = [edge_path(3), edge_path(5), edge_cycle(4)]
        theory = exercise23()
        # c_T = 2 (E6) plus the Exercise-17 delay: 4 rounds are uniform.
        assert ubdd_enough_check(theory, queries, instances, bound=4)

    def test_bound_zero_is_refuted(self):
        from repro.frontier import ubdd_enough_check
        from repro.logic import parse_query

        query = parse_query("q() := exists x. E(x, x)")
        assert not ubdd_enough_check(
            exercise23(), [query], [edge_path(3)], bound=0
        )
