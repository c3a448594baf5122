"""Unit tests for repro.logic.instance."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.atoms import atom
from repro.logic.instance import Instance, subsets_of_size_at_most
from repro.logic.signature import Predicate
from repro.logic.terms import Constant
from repro.storage.base import content_digest, instance_digest


def sample() -> Instance:
    return Instance(
        [atom("E", "a", "b"), atom("E", "b", "c"), atom("P", "a")]
    )


class TestMutation:
    def test_add_reports_novelty(self):
        instance = Instance()
        assert instance.add(atom("P", "a"))
        assert not instance.add(atom("P", "a"))
        assert len(instance) == 1

    def test_discard(self):
        instance = sample()
        assert instance.discard(atom("P", "a"))
        assert not instance.discard(atom("P", "a"))
        assert atom("P", "a") not in instance

    def test_domain_counts_survive_discard(self):
        instance = sample()
        instance.discard(atom("E", "a", "b"))
        # "a" still occurs in P(a); "b" still occurs in E(b,c).
        assert Constant("a") in instance.domain()
        assert Constant("b") in instance.domain()
        instance.discard(atom("E", "b", "c"))
        assert Constant("b") not in instance.domain()

    def test_update_counts_new(self):
        instance = sample()
        added = instance.update([atom("P", "a"), atom("P", "b")])
        assert added == 1


class TestIndexes:
    def test_with_predicate(self):
        instance = sample()
        assert len(instance.with_predicate(Predicate("E", 2))) == 2

    def test_with_term_at(self):
        instance = sample()
        hits = instance.with_term_at(Predicate("E", 2), 0, Constant("b"))
        assert hits == {atom("E", "b", "c")}

    def test_candidate_count(self):
        instance = sample()
        assert instance.candidate_count(Predicate("E", 2), 1, Constant("b")) == 1
        assert instance.candidate_count(Predicate("E", 2), 1, Constant("z")) == 0

    def test_containing(self):
        instance = sample()
        assert instance.containing(Constant("a")) == {
            atom("E", "a", "b"),
            atom("P", "a"),
        }

    def test_containing_tracks_discard(self):
        instance = sample()
        instance.discard(atom("E", "a", "b"))
        assert instance.containing(Constant("a")) == {atom("P", "a")}
        instance.discard(atom("P", "a"))
        assert instance.containing(Constant("a")) == set()

    def test_containing_returns_fresh_set(self):
        instance = sample()
        hits = instance.containing(Constant("a"))
        hits.clear()
        assert instance.containing(Constant("a"))


class TestSetOperations:
    def test_union_does_not_mutate(self):
        left = sample()
        right = Instance([atom("P", "z")])
        merged = left.union(right)
        assert len(merged) == 4
        assert len(left) == 3

    def test_issubset(self):
        small = Instance([atom("P", "a")])
        assert small.issubset(sample())
        assert not sample().issubset(small)

    def test_equality_is_by_fact_set(self):
        assert sample() == sample()
        assert sample() != Instance([atom("P", "a")])

    def test_copy_is_independent(self):
        original = sample()
        clone = original.copy()
        clone.add(atom("P", "zz"))
        assert atom("P", "zz") not in original

    def test_copy_indexes_are_independent(self):
        # The fast structural copy shares no bucket sets: mutating the
        # clone through add/discard must leave every original index view
        # (predicate, position, term) unchanged.
        original = sample()
        clone = original.copy()
        clone.discard(atom("E", "a", "b"))
        clone.add(atom("E", "a", "zz"))
        assert original.with_predicate(Predicate("E", 2)) == {
            atom("E", "a", "b"),
            atom("E", "b", "c"),
        }
        assert original.with_term_at(Predicate("E", 2), 0, Constant("a")) == {
            atom("E", "a", "b")
        }
        assert original.containing(Constant("a")) == {
            atom("E", "a", "b"),
            atom("P", "a"),
        }
        assert original.domain() == sample().domain()

    def test_copy_preserves_index_answers(self):
        original = sample()
        clone = original.copy()
        assert clone.with_predicate(Predicate("E", 2)) == original.with_predicate(
            Predicate("E", 2)
        )
        assert clone.candidate_count(
            Predicate("E", 2), 1, Constant("b")
        ) == original.candidate_count(Predicate("E", 2), 1, Constant("b"))
        assert clone.predicates() == original.predicates()

    def test_restrict_to_terms_is_induced_substructure(self):
        instance = sample()
        allowed = {Constant("a"), Constant("b")}
        restricted = instance.restrict_to_terms(allowed)
        assert restricted.atoms() == frozenset(
            {atom("E", "a", "b"), atom("P", "a")}
        )


class TestLivePredicates:
    def test_predicates_with_facts_tracks_add(self):
        instance = Instance()
        assert instance.predicates_with_facts() == set()
        instance.add(atom("P", "a"))
        assert instance.predicates_with_facts() == {Predicate("P", 1)}

    def test_predicates_with_facts_tracks_discard(self):
        instance = Instance([atom("P", "a"), atom("P", "b")])
        instance.discard(atom("P", "a"))
        assert Predicate("P", 1) in instance.predicates_with_facts()
        instance.discard(atom("P", "b"))
        assert Predicate("P", 1) not in instance.predicates_with_facts()

    def test_predicates_returns_a_copy(self):
        instance = sample()
        view = instance.predicates()
        view.add(Predicate("Zzz", 3))
        assert Predicate("Zzz", 3) not in instance.predicates()

    def test_live_view_survives_copy(self):
        clone = sample().copy()
        assert clone.predicates_with_facts() == {
            Predicate("E", 2),
            Predicate("P", 1),
        }


class TestSubsetEnumeration:
    def test_counts(self):
        instance = sample()
        ones = [s for s in subsets_of_size_at_most(instance, 1)]
        twos = [s for s in subsets_of_size_at_most(instance, 2)]
        assert len(ones) == 3
        assert len(twos) == 3 + 3  # C(3,1) + C(3,2)

    def test_bound_above_size_includes_everything(self):
        instance = sample()
        all_subsets = list(subsets_of_size_at_most(instance, 10))
        assert len(all_subsets) == 7  # 2^3 - 1 non-empty subsets

    def test_each_subset_is_subset(self):
        instance = sample()
        for part in subsets_of_size_at_most(instance, 2):
            assert part.issubset(instance)


facts = st.one_of(
    st.tuples(st.sampled_from("abc"), st.sampled_from("abc")).map(
        lambda pair: atom("E", *pair)
    ),
    st.sampled_from("abc").map(lambda name: atom("P", name)),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), facts),
        st.tuples(st.just("discard"), facts),
        st.tuples(st.just("update"), st.lists(facts, max_size=3)),
        st.tuples(st.just("copy"), st.none()),
    ),
    max_size=25,
)


class TestContentDigest:
    """``instance_digest`` caches on the instance; it must never go stale."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(facts, max_size=5), steps)
    def test_cached_digest_tracks_content(self, start, script):
        current = Instance(start)
        parents: list[tuple[Instance, str]] = []
        for op, arg in script:
            if op == "copy":
                parent_digest = instance_digest(current)
                clone = current.copy()
                assert clone._digest == parent_digest
                parents.append((current, parent_digest))
                current = clone
            else:
                getattr(current, op)(arg)
            assert instance_digest(current) == content_digest(list(current))
            for parent, digest in parents:
                assert instance_digest(parent) == digest
                assert digest == content_digest(list(parent))

    def test_noop_mutations_keep_the_cached_digest(self):
        instance = sample()
        digest = instance_digest(instance)
        assert not instance.add(atom("P", "a"))
        assert not instance.discard(atom("P", "zzz"))
        assert instance.update([atom("E", "a", "b")]) == 0
        assert instance._digest == digest
