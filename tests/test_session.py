"""Tests for repro.rewriting.session (OMQASession, query_shape)."""

from __future__ import annotations

import pytest

from repro import OMQASession
from repro.chase import ChaseBudget
from repro.chase.engine import ChaseBudgetExceeded
from repro.logic import parse_instance, parse_query, parse_theory
from repro.logic.instance import Instance
from repro.rewriting import certain_answers, query_shape

TA = "Human(y) -> exists z. Mother(y, z)\nMother(x, y) -> Human(y)"
UNIVERSITY = (
    "EnrolledIn(s, c) -> Student(s)\n"
    "TaughtBy(c, p) -> Professor(p)\n"
    "Professor(p) -> Person(p)"
)


class TestQueryShape:
    def test_alpha_equivalent_queries_share_shape(self):
        left = parse_query("q(x) := exists y. Mother(x, y)")
        right = parse_query("q(u) := exists w. Mother(u, w)")
        assert query_shape(left) == query_shape(right)

    def test_different_structure_different_shape(self):
        left = parse_query("q(x) := exists y. Mother(x, y)")
        right = parse_query("q(x) := exists y. Mother(y, x)")
        assert query_shape(left) != query_shape(right)

    def test_answer_variables_renamed_first(self):
        query = parse_query("q(b, a) := R(a, b)")
        shape = query_shape(query)
        assert [v.name for v in shape.answer_vars] == ["_s0", "_s1"]


class TestRewritingCache:
    def test_alpha_equivalent_queries_hit(self):
        session = OMQASession(parse_theory(TA))
        session.prepare(parse_query("q(x) := exists y. Mother(x, y)"))
        session.prepare(parse_query("q(u) := exists w. Mother(u, w)"))
        info = session.cache_info()["rewriting"]
        assert info == {"hits": 1, "misses": 1, "entries": 1}

    def test_distinct_shapes_miss(self):
        session = OMQASession(parse_theory(TA))
        session.prepare(parse_query("q(x) := Human(x)"))
        session.prepare(parse_query("q(x) := exists y. Mother(x, y)"))
        assert session.cache_info()["rewriting"]["entries"] == 2

    def test_cache_counters_mirrored_into_stats(self):
        """Hits and misses land in session.stats, hence in --stats output."""
        session = OMQASession(parse_theory(TA))
        session.prepare(parse_query("q(x) := exists y. Mother(x, y)"))
        session.prepare(parse_query("q(u) := exists w. Mother(u, w)"))
        session.prepare(parse_query("q(x) := Human(x)"))
        counters = session.stats.counters
        assert counters["session.rewrite_cache_hits"] == 1
        assert counters["session.rewrite_cache_misses"] == 2
        info = session.cache_info()["rewriting"]
        assert counters["session.rewrite_cache_hits"] == info["hits"]
        assert counters["session.rewrite_cache_misses"] == info["misses"]


class TestChaseCache:
    def test_same_content_hits(self):
        session = OMQASession(parse_theory(UNIVERSITY))
        first = parse_instance("EnrolledIn(ann, cs1). TaughtBy(cs1, turing)")
        second = parse_instance("TaughtBy(cs1, turing). EnrolledIn(ann, cs1)")
        session.materialize(first)
        session.materialize(second)
        info = session.cache_info()["chase"]
        assert info == {"hits": 1, "misses": 1, "entries": 1}

    def test_non_terminating_materialization_raises_and_is_not_cached(self):
        session = OMQASession(
            parse_theory(TA), chase_budget=ChaseBudget(max_rounds=2)
        )
        with pytest.raises(ChaseBudgetExceeded):
            session.materialize(parse_instance("Human(abel)"))
        assert session.cache_info()["chase"]["entries"] == 0


class TestAnswering:
    def test_answers_match_certain_answers(self):
        theory = parse_theory(UNIVERSITY)
        instance = parse_instance(
            "EnrolledIn(ann, cs1). EnrolledIn(bob, cs1). TaughtBy(cs1, turing)"
        )
        query = parse_query(
            "q(s) := exists c, p. EnrolledIn(s, c), TaughtBy(c, p), Person(p)"
        )
        session = OMQASession(theory)
        assert session.answer(query, instance) == certain_answers(
            theory, query, instance
        )

    def test_materialize_strategy(self):
        theory = parse_theory(UNIVERSITY)
        instance = parse_instance("TaughtBy(cs1, turing)")
        query = parse_query("q(p) := Person(p)")
        session = OMQASession(theory)
        answers = session.answer(query, instance, strategy="materialize")
        assert answers == certain_answers(theory, query, instance)
        assert session.cache_info()["chase"]["entries"] == 1

    def test_answer_many_shares_caches(self):
        theory = parse_theory(UNIVERSITY)
        instance = parse_instance("EnrolledIn(ann, cs1). TaughtBy(cs1, turing)")
        queries = [
            parse_query("q(s) := Student(s)"),
            parse_query("q(t) := Student(t)"),  # alpha-equivalent
            parse_query("q(p) := Person(p)"),
        ]
        session = OMQASession(theory)
        results = session.answer_many(queries, instance)
        assert results[0] == results[1]
        assert session.cache_info()["rewriting"]["hits"] >= 1

    def test_invalid_strategy_rejected(self):
        session = OMQASession(parse_theory(TA))
        with pytest.raises(ValueError):
            session.answer(
                parse_query("q(x) := Human(x)"), parse_instance("Human(a)"), "guess"
            )

    def test_stats_aggregate_across_runs(self):
        session = OMQASession(parse_theory(UNIVERSITY))
        instance = parse_instance("TaughtBy(cs1, turing)")
        session.answer(parse_query("q(p) := Person(p)"), instance)
        assert session.stats.counters["rewrite.steps"] >= 1

    def test_clear_drops_entries_keeps_stats(self):
        session = OMQASession(parse_theory(UNIVERSITY))
        session.prepare(parse_query("q(s) := Student(s)"))
        counter_snapshot = dict(session.stats.counters)
        session.clear()
        assert session.cache_info()["rewriting"]["entries"] == 0
        assert dict(session.stats.counters) == counter_snapshot


def _fact(text):
    return next(iter(parse_instance(text)))


class TestLiveUpdates:
    def test_add_facts_seeds_cache_without_rechase(self):
        session = OMQASession(parse_theory(UNIVERSITY))
        instance = parse_instance("EnrolledIn(ann, cs1). TaughtBy(cs1, turing)")
        session.materialize(instance)
        new_fact = _fact("EnrolledIn(bob, cs1)")
        updated = session.add_facts(instance, [new_fact])
        assert new_fact in updated and new_fact not in instance
        assert session.cache_info()["chase"]["entries"] == 2
        session.materialize(updated)  # served from the maintained cache
        assert session.cache_info()["chase"] == {
            "hits": 1,
            "misses": 1,
            "entries": 2,
        }

    def test_answers_after_updates_match_fresh_session(self):
        theory = parse_theory(UNIVERSITY)
        query = parse_query("q(p) := Person(p)")
        instance = parse_instance("TaughtBy(cs1, turing). TaughtBy(cs2, hopper)")
        session = OMQASession(theory)
        session.answer(query, instance, strategy="materialize")
        updated = session.add_facts(instance, [_fact("TaughtBy(cs3, curie)")])
        updated = session.retract_facts(updated, [_fact("TaughtBy(cs1, turing)")])
        live = session.answer(query, updated, strategy="materialize")
        fresh = OMQASession(theory).answer(query, updated, strategy="materialize")
        assert live == fresh
        assert session.cache_info()["chase"]["hits"] >= 1

    def test_mutate_then_restore_hits_cache(self):
        # Satellite pin: cache keys are content-based, so updating an
        # instance and undoing the update lands back on the original
        # cache entry instead of re-chasing.
        session = OMQASession(parse_theory(UNIVERSITY))
        instance = parse_instance("EnrolledIn(ann, cs1). TaughtBy(cs1, turing)")
        session.materialize(instance)
        new_fact = _fact("EnrolledIn(bob, cs1)")
        updated = session.add_facts(instance, [new_fact])
        restored = session.retract_facts(updated, [new_fact])
        assert restored.atoms() == instance.atoms()
        session.materialize(restored)
        info = session.cache_info()["chase"]
        assert info["hits"] == 1 and info["misses"] == 1

    def test_two_updates_of_one_cached_entry(self):
        # Each update takes the cached fixpoint's carried maintenance
        # state; the second update of the same entry rebuilds it and
        # must still answer like a fresh session.
        theory = parse_theory(UNIVERSITY)
        query = parse_query("q(p) := Person(p)")
        instance = parse_instance("TaughtBy(cs1, turing). TaughtBy(cs2, hopper)")
        session = OMQASession(theory)
        session.materialize(instance)
        for updated in (
            session.add_facts(instance, [_fact("TaughtBy(cs3, curie)")]),
            session.retract_facts(instance, [_fact("TaughtBy(cs1, turing)")]),
        ):
            live = session.answer(query, updated, strategy="materialize")
            fresh = OMQASession(theory).answer(query, updated, strategy="materialize")
            assert live == fresh
        assert session.cache_info()["chase"]["entries"] == 3

    def test_chase_cache_counters_mirrored_into_stats(self):
        session = OMQASession(parse_theory(UNIVERSITY))
        instance = parse_instance("TaughtBy(cs1, turing)")
        session.materialize(instance)
        session.materialize(parse_instance("TaughtBy(cs1, turing)"))
        counters = session.stats.counters
        assert counters["session.chase_cache_hits"] == 1
        assert counters["session.chase_cache_misses"] == 1
        info = session.cache_info()["chase"]
        assert counters["session.chase_cache_hits"] == info["hits"]
        assert counters["session.chase_cache_misses"] == info["misses"]

    def test_updates_merge_delta_counters(self):
        session = OMQASession(parse_theory(UNIVERSITY))
        instance = parse_instance("EnrolledIn(ann, cs1). TaughtBy(cs1, turing)")
        session.materialize(instance)
        session.add_facts(instance, [_fact("EnrolledIn(bob, cs1)")])
        assert session.stats.counters["delta.updates"] == 1
        assert session.stats.counters["delta.added_base"] == 1


class TestInPlaceMutation:
    """A passed-in instance mutated in place between store-backed answers.

    The store-backed strategies key their loaded store by the instance's
    cached content digest; every mutation that changes the facts must be
    seen (a reload and fresh answers), and no other call may reload.
    """

    @pytest.mark.parametrize(
        "strategy, misses",
        [
            ("columnar", lambda s: s.cache_info()["columnar"]["misses"]),
            ("sql", lambda s: s.stats.counters["session.sql_load_misses"]),
        ],
        ids=["columnar", "sql"],
    )
    def test_mutation_reloads_exactly_when_content_changes(self, strategy, misses):
        theory = parse_theory(UNIVERSITY)
        query = parse_query("q(p) := Person(p)")
        instance = parse_instance("EnrolledIn(ann, cs1). TaughtBy(cs1, turing)")
        session = OMQASession(theory)
        # (mutation, whether the next answer must reload the store)
        steps = [
            (lambda: None, True),  # the first load
            (lambda: instance.add(_fact("TaughtBy(cs2, hopper)")), True),
            (lambda: instance.add(_fact("TaughtBy(cs2, hopper)")), False),
            (lambda: instance.discard(_fact("TaughtBy(cs1, turing)")), True),
            (lambda: instance.discard(_fact("TaughtBy(cs1, turing)")), False),
            (
                lambda: instance.update(
                    [_fact("TaughtBy(cs3, liskov)"), _fact("TaughtBy(cs2, hopper)")]
                ),
                True,
            ),
            (lambda: instance.update([_fact("TaughtBy(cs3, liskov)")]), False),
        ]
        expected_misses = 0
        for mutate, reloads in steps:
            mutate()
            expected_misses += reloads
            got = session.answer(query, instance, strategy=strategy)
            fresh = OMQASession(theory).answer(
                query, Instance(list(instance)), strategy=strategy
            )
            assert got == fresh
            assert misses(session) == expected_misses
        assert {t[0].name for t in got} == {"hopper", "liskov"}

    def test_load_outcomes_mirrored_into_stats(self):
        session = OMQASession(parse_theory(UNIVERSITY))
        query = parse_query("q(p) := Person(p)")
        instance = parse_instance("TaughtBy(cs1, turing)")
        for _ in range(2):
            session.answer(query, instance, strategy="columnar")
            session.answer(query, instance, strategy="sql")
        instance.add(_fact("TaughtBy(cs2, hopper)"))
        session.answer(query, instance, strategy="columnar")
        session.answer(query, instance, strategy="sql")
        counters = session.stats.counters
        info = session.cache_info()["columnar"]
        assert counters["session.columnar_load_hits"] == info["hits"] == 1
        assert counters["session.columnar_load_misses"] == info["misses"] == 2
        assert counters["session.sql_load_hits"] == 1
        assert counters["session.sql_load_misses"] == 2


class TestThreadSafety:
    """Satellite pin: sessions survive concurrent answer() callers.

    The service (repro.service) answers requests from a threadpool over
    one shared session per theory; these tests hammer the caches from 8
    threads and require (a) every thread sees the single-threaded
    answers and (b) the rewriting compiled exactly once per shape
    (single-flight: losers of the compile race count as cache hits).
    """

    THREADS = 8
    ROUNDS = 5

    def _hammer(self, strategy):
        import threading

        theory = parse_theory(UNIVERSITY)
        instance = parse_instance(
            "EnrolledIn(ann, cs1). EnrolledIn(bob, cs2). "
            "TaughtBy(cs1, turing). TaughtBy(cs2, hopper)"
        )
        queries = [
            parse_query("q(s) := Student(s)"),
            parse_query("q(p) := Person(p)"),
            parse_query("q(s, c) := EnrolledIn(s, c)"),
        ]
        expected = [certain_answers(theory, q, instance) for q in queries]
        session = OMQASession(theory)
        failures = []
        barrier = threading.Barrier(self.THREADS)

        def worker():
            barrier.wait()  # maximize contention on first-compile races
            for _ in range(self.ROUNDS):
                for query, want in zip(queries, expected):
                    got = session.answer(query, instance, strategy=strategy)
                    if got != want:
                        failures.append((strategy, query, got))

        threads = [
            threading.Thread(target=worker) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        return session

    def test_concurrent_answer_auto(self):
        session = self._hammer("auto")
        info = session.cache_info()["rewriting"]
        # Single-flight: one compile per distinct shape, every other
        # request (including compile-race losers) is a hit.
        assert info["misses"] == 3
        assert info["entries"] == 3
        assert info["hits"] == self.THREADS * self.ROUNDS * 3 - 3

    def test_concurrent_answer_sql(self):
        session = self._hammer("sql")
        info = session.cache_info()["sql"]
        assert info["misses"] == 3 and info["entries"] == 3

    def test_concurrent_answer_columnar(self):
        session = self._hammer("columnar")
        # One load of the shared store; no thread saw a half-populated one.
        assert session.cache_info()["columnar"]["misses"] == 1
