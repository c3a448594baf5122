"""Contract tests for the shared term-interning dictionary.

Both id-native stores — :class:`~repro.storage.sqlite.SQLiteStore` and
:class:`~repro.storage.columnar.ColumnarStore` — intern terms through
:class:`repro.storage.interning.TermInterningMixin`.  The suite is
parametrized over both backends: the contract (structural identity,
stable ids, display reprs, digest agreement) is one spec, and whatever
the mixin guarantees must hold regardless of whether the dictionary
lives in SQLite rows or Python lists.
"""

from __future__ import annotations

import pytest

from repro.logic import parse_instance
from repro.logic.terms import Constant, FunctionTerm, Variable
from repro.storage import ColumnarStore, SQLiteStore, content_digest

BACKENDS = [ColumnarStore, lambda: SQLiteStore(":memory:")]
BACKEND_IDS = ["columnar", "sqlite"]


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def store(request):
    with request.param() as handle:
        yield handle


DEEP = FunctionTerm(
    "f_mother",
    (FunctionTerm("f_mother", (Constant("abel"),)), Variable("x")),
)


class TestInterningContract:
    def test_constant_round_trip(self, store):
        term = Constant("abel")
        term_id = store.intern_term(term)
        assert store.term_by_id(term_id) == term
        assert store.display_of(term_id) == "abel"

    def test_variable_round_trip(self, store):
        term = Variable("x")
        term_id = store.intern_term(term)
        assert store.term_by_id(term_id) == term
        # Variables and constants of the same name are distinct entries.
        assert store.intern_term(Constant("x")) != term_id

    def test_function_term_round_trip(self, store):
        term_id = store.intern_term(DEEP)
        assert store.term_by_id(term_id) == DEEP
        assert store.display_of(term_id) == repr(DEEP)

    def test_interning_is_idempotent(self, store):
        first = store.intern_term(DEEP)
        assert store.intern_term(DEEP) == first
        # Structural identity: an equal but distinct object shares the id.
        clone = FunctionTerm(
            "f_mother",
            (FunctionTerm("f_mother", (Constant("abel"),)), Variable("x")),
        )
        assert store.intern_term(clone) == first

    def test_intern_function_matches_intern_term(self, store):
        # The id-native path (children already interned) must land on the
        # same dictionary entry as interning the Python term.
        child = store.intern_term(Constant("abel"))
        via_ids = store.intern_function("f_mother", (child,))
        via_term = store.intern_term(FunctionTerm("f_mother", (Constant("abel"),)))
        assert via_ids == via_term
        assert store.display_of(via_ids) == repr(
            FunctionTerm("f_mother", (Constant("abel"),))
        )

    def test_term_id_is_lookup_only(self, store):
        assert store.term_id(Constant("ghost")) is None
        assert store.term_id(FunctionTerm("f", (Constant("ghost"),))) is None
        term_id = store.intern_term(Constant("ghost"))
        assert store.term_id(Constant("ghost")) == term_id

    def test_unknown_id_raises(self, store):
        with pytest.raises(KeyError):
            store.term_by_id(999_999)
        with pytest.raises(KeyError):
            store.display_of(999_999)

    def test_uninternable_rejected(self, store):
        with pytest.raises(TypeError):
            store.intern_term("not a term")  # type: ignore[arg-type]


class TestDigestAgreement:
    FACTS = "E(a, b). E(b, c). P(a). Loves(a, a)"

    def test_digest_matches_instance_digest(self, store):
        facts = parse_instance(self.FACTS)
        store.add_many(facts)
        assert store.digest() == content_digest(facts)

    def test_digests_agree_across_backends(self):
        # Equal facts, equal checksums, whichever backend interned them —
        # the property that lets equivalence tests compare digests.
        facts = parse_instance(self.FACTS)
        with ColumnarStore() as columnar, SQLiteStore(":memory:") as sqlite:
            columnar.add_many(facts)
            sqlite.add_many(reversed(list(facts)))
            assert columnar.digest() == sqlite.digest()

    # Id-native bulk inserts with round tags: the store chase's write
    # path, so only the durable store has it.
    @pytest.mark.parametrize("store", BACKENDS[1:], ids=BACKEND_IDS[1:], indirect=True)
    def test_insert_rows_counts_new_only(self, store):
        facts = parse_instance("E(a, b). E(b, c)")
        edge = next(iter(facts)).predicate
        rows = [
            tuple(store.intern_term(term) for term in atom.args)
            for atom in sorted(facts, key=repr)
        ]
        assert store.insert_rows(edge, rows, round_=1) == 2
        assert store.insert_rows(edge, rows, round_=2) == 0
        assert store.max_round() == 1

    def test_clear_facts_keeps_terms(self, store):
        facts = parse_instance("E(a, b)")
        store.add_many(facts)
        term_id = store.term_id(Constant("a"))
        assert term_id is not None
        store.clear_facts()
        assert len(store) == 0
        assert store.term_id(Constant("a")) == term_id


class TestOnDiskDictionary:
    """The ``repro_terms`` rows a file-backed store writes are a format.

    Pinned text: databases written by earlier builds must keep decoding,
    and the same term must keep producing the same rows.
    """

    TERM = FunctionTerm(
        "f", (FunctionTerm("g", (Constant("a"),)), Constant("b"))
    )
    ROWS = [
        (1, "c", "a", "a"),
        (2, "f", '["g", [1]]', "g(a)"),
        (3, "c", "b", "b"),
        (4, "f", '["f", [2, 3]]', "f(g(a),b)"),
    ]
    DIGEST = "924f442de01d7070"

    def test_repro_terms_rows_and_decoding(self, tmp_path):
        import sqlite3

        from repro.logic.atoms import Atom
        from repro.logic.signature import Predicate

        path = str(tmp_path / "terms.db")
        with SQLiteStore(path) as writer:
            term_id = writer.intern_term(self.TERM)
            writer.add(Atom(Predicate("P", 1), (self.TERM,)))
            assert writer.digest() == self.DIGEST
        connection = sqlite3.connect(path)
        try:
            rows = connection.execute(
                "SELECT id, kind, payload, display FROM repro_terms ORDER BY id"
            ).fetchall()
        finally:
            connection.close()
        assert rows == self.ROWS
        with SQLiteStore(path) as reader:  # a fresh connection: only the file
            assert reader.term_by_id(term_id) == self.TERM
            assert reader.function_parts(term_id) == ("f", (2, 3))
            assert reader.function_parts(2) == ("g", (1,))
            assert reader.function_parts(1) is None
            assert reader.term_id(self.TERM) == term_id
            assert reader.digest() == self.DIGEST
