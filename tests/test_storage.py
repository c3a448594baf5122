"""Unit tests for the storage subsystem (repro.storage).

Covers the fact-store contract on both stores, content digests, the
SQLite store's round tags, metadata and id-native bulk-insert path, SQL
compilation of UCQ rewritings, and the store-backed chase's error
surface.  End-to-end
equivalence properties live in ``test_storage_equivalence.py``;
store-chase resume exactness in ``test_storage_checkpoint.py``.
"""

from __future__ import annotations

import pytest

from repro.chase import ChaseBudget, chase
from repro.logic import parse_instance, parse_query, parse_theory
from repro.logic.query import UnionOfCQs
from repro.logic.containment import evaluate_ucq
from repro.logic.homomorphism import evaluate
from repro.storage import (
    ColumnarStore,
    SQLiteStore,
    StoreChaseError,
    chase_into_store,
    compile_ucq,
    content_digest,
    evaluate_ucq_sql,
    execute_compiled,
)
from repro.workloads import edge_cycle, edge_path, example42_tc

BACKENDS = [ColumnarStore, lambda: SQLiteStore(":memory:")]
BACKEND_IDS = ["columnar", "sqlite"]


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def store(request):
    with request.param() as handle:
        yield handle


# Round tags and metadata live only in the durable store.
DURABLE = pytest.mark.parametrize(
    "store", BACKENDS[1:], ids=BACKEND_IDS[1:], indirect=True
)


class TestFactStoreContract:
    def test_add_and_contains(self, store):
        facts = parse_instance("E(a, b). E(b, c). P(a)")
        assert store.add_many(facts) == 3
        assert len(store) == 3
        for atom in facts:
            assert atom in store
        assert parse_instance("E(c, a)").atoms().__iter__().__next__() not in store

    def test_add_is_idempotent(self, store):
        atom = parse_instance("E(a, b)").atoms().__iter__().__next__()
        assert store.add(atom) is True
        assert store.add(atom) is False
        assert len(store) == 1

    @DURABLE
    def test_round_tags(self, store):
        base = parse_instance("E(a, b)")
        derived = parse_instance("R(a, b)")
        store.add_many(base, round_=0)
        store.add_many(derived, round_=1)
        assert store.max_round() == 1
        assert store.atoms_in_round(0) == base.atoms()
        assert store.atoms_in_round(1) == derived.atoms()
        assert store.count_in_round(1) == 1

    def test_iteration_and_facts(self, store):
        facts = parse_instance("E(a, b). E(b, c). P(a)")
        store.add_many(facts)
        assert set(store) == facts.atoms()
        edges = {atom for atom in store.facts(next(iter(facts)).predicate.name)}
        assert all(atom.predicate.name == next(iter(facts)).predicate.name for atom in edges)

    def test_to_instance_round_trip(self, store):
        facts = edge_path(4)
        store.add_many(facts)
        assert store.to_instance() == facts

    def test_digest_matches_instance_digest(self, store):
        facts = edge_cycle(5)
        store.add_many(facts)
        assert store.digest() == content_digest(facts)

    def test_digest_is_order_independent(self):
        facts = list(parse_instance("E(a, b). E(b, c). P(a)"))
        with SQLiteStore(":memory:") as forward, SQLiteStore(":memory:") as backward:
            forward.add_many(facts)
            backward.add_many(reversed(facts))
            assert forward.digest() == backward.digest()

    @DURABLE
    def test_meta_round_trip(self, store):
        assert store.get_meta("missing") is None
        store.set_meta("k", "v")
        assert store.get_meta("k") == "v"


class TestSQLiteStore:
    def test_persistence_across_connections(self, tmp_path):
        path = str(tmp_path / "facts.db")
        facts = edge_cycle(6)
        with SQLiteStore(path) as writer:
            writer.add_many(facts)
            digest = writer.digest()
        with SQLiteStore(path) as reader:
            assert reader.to_instance() == facts
            assert reader.digest() == digest

    def test_reads_inside_a_transaction_do_not_commit(self):
        from repro.logic.signature import Predicate
        from repro.logic.terms import Constant

        edge = Predicate("E", 2)
        with SQLiteStore(":memory:") as handle:
            handle.add_many(edge_path(1))
            committed = handle.digest()
            fresh = next(iter(parse_instance("E(x, y)")))
            ids = tuple(handle.intern_term(Constant(name)) for name in ("x", "y"))
            handle.insert_rows(edge, [ids], round_=1)
            # Reads see the open transaction's row ...
            assert len(handle) == 2
            assert fresh in handle
            assert handle.digest() != committed
            # ... and leave the transaction open, so rollback drops it.
            handle.rollback()
            assert len(handle) == 1
            assert fresh not in handle
            assert handle.digest() == committed

    def test_insert_rows_counts_new_only(self):
        from repro.logic.signature import Predicate
        from repro.logic.terms import Constant

        edge = Predicate("E", 2)
        with SQLiteStore(":memory:") as handle:
            ids = [handle.intern_term(Constant(name)) for name in ("a", "b", "c")]
            rows = [(ids[0], ids[1]), (ids[1], ids[2])]
            assert handle.insert_rows(edge, rows, round_=1) == 2
            assert handle.insert_rows(edge, rows, round_=2) == 0
            assert len(handle) == 2
            assert handle.max_round() == 1

    def test_clear_facts_keeps_terms(self):
        with SQLiteStore(":memory:") as handle:
            handle.add_many(edge_path(3))
            before = handle.stats.counters["store.terms_interned"]
            handle.clear_facts()
            assert len(handle) == 0
            handle.add_many(edge_path(3))
            assert handle.stats.counters["store.terms_interned"] == before

    def test_arity_zero_predicate(self):
        with SQLiteStore(":memory:") as handle:
            fact = parse_instance("Started()").atoms().__iter__().__next__()
            assert handle.add(fact) is True
            assert handle.add(fact) is False
            assert fact in handle
            assert set(handle) == {fact}

    def test_telemetry_counters_move(self):
        with SQLiteStore(":memory:") as handle:
            handle.add_many(edge_path(5))
            list(handle)
            counters = handle.stats.counters
            assert counters["store.writes"] == 5
            assert counters["store.terms_interned"] == 6
            assert counters["store.rows_scanned"] >= 5
            assert counters["store.sql_queries"] >= 1

    def test_wal_and_rollback_journal_digests_identical(self, tmp_path):
        facts = edge_cycle(6)
        with SQLiteStore(str(tmp_path / "wal.db"), wal=True) as wal_store:
            wal_store.add_many(facts)
            wal_digest = wal_store.digest()
            assert wal_store.journal_mode == "wal"
            assert wal_store.stats.counters["store.wal_opens"] == 1
        with SQLiteStore(str(tmp_path / "rollback.db"), wal=False) as plain:
            plain.add_many(facts)
            assert plain.digest() == wal_digest == content_digest(facts)
            assert plain.journal_mode == "delete"
            assert plain.stats.counters["store.rollback_opens"] == 1

    def test_memory_database_reports_granted_mode(self):
        # SQLite refuses WAL for :memory: databases; the attribute must
        # report what was granted, never what was asked for.
        with SQLiteStore(":memory:", wal=True) as handle:
            assert handle.journal_mode == "memory"
            assert handle.stats.counters["store.rollback_opens"] == 1

    def test_reload_catalog_sees_writer_tables(self, tmp_path):
        path = str(tmp_path / "shared.db")
        with SQLiteStore(path) as writer, SQLiteStore(path) as reader:
            writer.add_many(parse_instance("E(a, b)"))
            assert len(reader.predicates()) == 0  # stale catalog cache
            reader.reload_catalog()
            assert {p.name for p in reader.predicates()} == {"E"}
            assert reader.digest() == writer.digest()


class TestSqlCompile:
    def test_compiled_cq_matches_memory(self):
        query = parse_query("q(x, y) := exists z. E(x, z), E(z, y)")
        facts = edge_path(5)
        with SQLiteStore(":memory:") as handle:
            handle.add_many(facts)
            assert evaluate_ucq_sql(query, handle) == evaluate(query, facts)

    def test_constants_and_repeated_variables(self):
        query = parse_query("q(y) := E('a0', y), E(y, y)")
        facts = parse_instance("E(a0, a0). E(a0, b). E(b, c)")
        with SQLiteStore(":memory:") as handle:
            handle.add_many(facts)
            assert evaluate_ucq_sql(query, handle) == evaluate(query, facts)

    def test_ucq_union_deduplicates(self):
        disjuncts = UnionOfCQs(
            [
                parse_query("q(x) := P(x)"),
                parse_query("q(x) := exists y. E(x, y)"),
            ]
        )
        facts = parse_instance("P(a). E(a, b). E(b, c)")
        with SQLiteStore(":memory:") as handle:
            handle.add_many(facts)
            compiled = compile_ucq(disjuncts, handle)
            answers = execute_compiled(compiled, handle)
            assert answers == evaluate_ucq(disjuncts, facts)

    def test_unknown_predicate_prunes_disjunct(self):
        disjuncts = UnionOfCQs(
            [
                parse_query("q(x) := Missing(x)"),
                parse_query("q(x) := P(x)"),
            ]
        )
        facts = parse_instance("P(a)")
        with SQLiteStore(":memory:") as handle:
            handle.add_many(facts)
            compiled = compile_ucq(disjuncts, handle)
            assert execute_compiled(compiled, handle) == evaluate_ucq(disjuncts, facts)

    def test_boolean_query_short_circuits(self):
        query = parse_query("q() := exists x, y. E(x, y)")
        with SQLiteStore(":memory:") as handle:
            handle.add_many(parse_instance("E(a, b)"))
            assert evaluate_ucq_sql(query, handle) == {()}
        with SQLiteStore(":memory:") as handle:
            handle.add_many(parse_instance("P(a)"))
            assert evaluate_ucq_sql(query, handle) == set()


class TestStoreChase:
    def test_rejects_dirty_store_without_state(self):
        with SQLiteStore(":memory:") as handle:
            handle.add_many(edge_path(2))
            with pytest.raises(StoreChaseError):
                chase_into_store(example42_tc(), edge_path(2), handle)

    def test_rejects_theory_mismatch_on_resume(self):
        theory = example42_tc()
        other = parse_theory("E(x, y) -> R(x, y)", name="other")
        with SQLiteStore(":memory:") as handle:
            chase_into_store(
                theory, edge_cycle(3), handle, budget=ChaseBudget(max_rounds=1)
            )
            with pytest.raises(StoreChaseError):
                chase_into_store(other, None, handle)

    def test_rejects_base_on_resume(self):
        theory = example42_tc()
        with SQLiteStore(":memory:") as handle:
            chase_into_store(
                theory, edge_cycle(3), handle, budget=ChaseBudget(max_rounds=1)
            )
            with pytest.raises(StoreChaseError):
                chase_into_store(theory, edge_cycle(3), handle)

    def test_accepts_universal_head_variables(self):
        # A universal head variable ranges over the round's active
        # domain, inside the store exactly as in RAM.
        theory = parse_theory("P(x) -> Q(x, y)", name="universal-head")
        base = parse_instance("P(a). P(b)")
        reference = chase(theory, base, backend="memory")
        with SQLiteStore(":memory:") as handle:
            outcome = chase_into_store(theory, base, handle)
            assert outcome.terminated
            assert outcome.digest() == content_digest(reference.instance)
            for round_ in range(reference.rounds_run + 1):
                assert handle.atoms_in_round(round_) == reference.round_added[round_]

    def test_universal_theory_persists_store_chase_state(self):
        # No fallback path: a universal theory writes storechase.* state
        # like any other, so the database resumes through the store chase.
        theory = parse_theory("P(x) -> Q(x, y)", name="universal-head")
        with SQLiteStore(":memory:") as handle:
            chase_into_store(
                theory, parse_instance("P(a)"), handle, budget=ChaseBudget(max_rounds=1)
            )
            assert handle.get_meta("storechase.schema") is not None
            assert handle.get_meta("storechase.theory") == "P(x) -> Q(x,y)\n"
            assert handle.get_meta("storechase.rounds") == "1"
            assert handle.get_meta("checkpoint.schema") is None

    def test_max_atoms_raise(self):
        theory = example42_tc()
        budget = ChaseBudget(max_rounds=50, max_atoms=10, on_exceeded="raise")
        with SQLiteStore(":memory:") as handle:
            with pytest.raises(Exception):
                chase_into_store(theory, edge_cycle(6), handle, budget=budget)

    def test_matches_in_memory_chase(self):
        theory = example42_tc()
        cycle = edge_cycle(5)
        budget = ChaseBudget(max_rounds=4, max_atoms=100_000)
        reference = chase(theory, cycle, budget=budget)
        with SQLiteStore(":memory:") as handle:
            outcome = chase_into_store(theory, cycle, handle, budget=budget)
            assert outcome.digest() == content_digest(reference.instance)
            for round_ in range(outcome.rounds_run + 1):
                assert handle.atoms_in_round(round_) == reference.round_added[round_]
            # SQL over the chased facts, Skolem terms included, answers
            # like the in-memory evaluator over the in-memory chase.
            probe = parse_query("q(x, y) := exists x1, y1. R(x, y, x1, y1)")
            in_sql = evaluate_ucq_sql(probe, handle)
            assert in_sql and in_sql == evaluate(probe, reference.instance)
