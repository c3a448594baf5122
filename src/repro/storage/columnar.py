"""The in-RAM columnar fact store: interned ids, flat tuple relations.

This is the data plane behind ``backend="columnar"`` — the default
chase engine since the columnar kernel landed.  Facts are held as flat
tuples of **interned integer term ids** (the same structural dictionary
:class:`~repro.storage.interning.TermInterningMixin` gives the SQLite
store), one :class:`_Relation` per predicate:

``rows: dict[row, round]``
    the tuple store itself; the dict doubles as the dedup set and the
    "first round it appeared in" tag of Definition 6 (re-adding a fact
    never changes its tag);
``indexes: tuple[dict[int, set[row]], ...]``
    one hash index per position, mapping a term id to the set of rows
    carrying it there — the O(1) bucket probes the columnar kernel's
    hash join is built on.

A note on layout: flat ``array``/numpy columns were considered for the
tuple store, but the chase's access pattern is dominated by per-fact
dedup probes and per-position bucket lookups, which the hashed row-set
representation serves in O(1) with zero decode cost; contiguous columns
only pay off for full scans, which the kernel never does once the
indexes exist.  (numpy is also not a dependency of this package.)

Everything is id-native: Skolem terms derived by the kernel are
interned via :meth:`intern_function` without materializing
``FunctionTerm`` objects, and ``digest()`` renders fact reprs straight
from the dictionary's display strings, so digests agree exactly with
:func:`~repro.storage.base.content_digest` of the equivalent
``Instance`` — and with :class:`~repro.storage.sqlite.SQLiteStore` on
the same facts.

Telemetry (``store.*`` counters, see ``docs/architecture.md`` §6):
``store.writes`` facts submitted, ``store.batches`` bulk calls,
``store.rows_scanned`` rows decoded to atoms, ``store.terms_interned``
dictionary inserts.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..logic.atoms import Atom
from ..logic.instance import Instance
from ..logic.signature import Predicate
from ..telemetry import Telemetry
from .base import content_digest
from .interning import TermInterningMixin


class _Relation:
    """One predicate's tuple store plus its per-position hash indexes."""

    __slots__ = ("arity", "rows", "indexes", "by_round")

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.rows: dict[tuple, int] = {}
        self.indexes: tuple[dict[int, set], ...] = tuple(
            {} for _ in range(arity)
        )
        self.by_round: dict[int, int] = {}

    def insert(self, row: tuple, round_: int) -> bool:
        """Add ``row`` tagged ``round_``; False when already present."""
        if row in self.rows:
            return False
        self.rows[row] = round_
        for position, term_id in enumerate(row):
            bucket = self.indexes[position].get(term_id)
            if bucket is None:
                self.indexes[position][term_id] = {row}
            else:
                bucket.add(row)
        self.by_round[round_] = self.by_round.get(round_, 0) + 1
        return True

    def remove(self, row: tuple) -> bool:
        """Drop ``row`` and its index entries; False when it was absent."""
        round_ = self.rows.pop(row, None)
        if round_ is None:
            return False
        for index, term_id in zip(self.indexes, row):
            bucket = index[term_id]
            bucket.discard(row)
            if not bucket:
                del index[term_id]
        self.by_round[round_] -= 1
        return True


class ColumnarStore(TermInterningMixin):
    """A :class:`~repro.storage.base.FactStore` over columnar id tuples.

    Purely in-RAM: ``close()`` discards everything.  The term caches
    inherited from the mixin *are* the dictionary, so they are never
    trimmed and ``_dict_lookup`` never has a second place to look.
    """

    def __init__(
        self,
        instance: "Iterable[Atom] | None" = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.stats = telemetry if telemetry is not None else Telemetry()
        self._init_term_caches()
        # The dictionary itself: entry i describes term id i + 1.
        self._term_rows: list[tuple[str, str, str]] = []
        self._relations: dict[Predicate, _Relation] = {}
        self._meta: dict[str, str] = {}
        self._max_round = 0
        if instance is not None:
            self.add_many(instance)

    @property
    def backend(self) -> str:
        return "columnar"

    # ------------------------------------------------------------------
    # Dictionary primitives (TermInterningMixin contract)
    # ------------------------------------------------------------------
    def _dict_lookup(self, kind: str, payload: str) -> "int | None":
        # The payload cache is the authoritative index; a miss there is
        # a miss, full stop.
        return None

    def _dict_insert(self, kind: str, payload: str, display: str) -> int:
        self._term_rows.append((kind, payload, display))
        self.stats.counters["store.terms_interned"] += 1
        return len(self._term_rows)

    def _dict_fetch(self, term_id: int) -> "tuple[str, str, str] | None":
        if 1 <= term_id <= len(self._term_rows):
            return self._term_rows[term_id - 1]
        return None

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def relation(self, predicate: Predicate) -> "_Relation | None":
        """The predicate's relation, or ``None`` when never seen."""
        return self._relations.get(predicate)

    def relation_for(self, predicate: Predicate) -> _Relation:
        """The predicate's relation, created on first sight."""
        relation = self._relations.get(predicate)
        if relation is None:
            relation = _Relation(predicate.arity)
            self._relations[predicate] = relation
        return relation

    def _encode(self, item: Atom) -> tuple:
        return tuple(self.intern_term(term) for term in item.args)

    def _row_of(self, item: Atom) -> "tuple | None":
        """``item``'s id row without interning; None when a term is unknown."""
        ids = []
        for term in item.args:
            term_id = self.term_id(term)
            if term_id is None:
                return None
            ids.append(term_id)
        return tuple(ids)

    def _decode(self, predicate: Predicate, row: tuple) -> Atom:
        return Atom(predicate, tuple(self.term_by_id(t) for t in row))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert_row(self, predicate: Predicate, row: tuple, round_: int) -> bool:
        """Insert one id-native row; True when it was new."""
        self.stats.counters["store.writes"] += 1
        if self.relation_for(predicate).insert(row, round_):
            if round_ > self._max_round:
                self._max_round = round_
            return True
        return False

    def add(self, item: Atom, round_: int = 0) -> bool:
        """Add one fact; returns True when it was not present before."""
        return self.insert_row(item.predicate, self._encode(item), round_)

    def add_many(self, items: Iterable[Atom], round_: int = 0) -> int:
        """Add facts in bulk; returns how many were *new*."""
        self.stats.counters["store.batches"] += 1
        added = 0
        for item in items:
            if self.add(item, round_=round_):
                added += 1
        return added

    def insert_rows(
        self, predicate: Predicate, rows: "list[tuple[int, ...]]", round_: int
    ) -> int:
        """Bulk-insert id-native fact rows; returns how many were new.

        Mirrors :meth:`SQLiteStore.insert_rows`: re-proposed facts keep
        their original round tag (Definition 6's first-appearance
        semantics).
        """
        if not rows:
            return 0
        self.stats.counters["store.batches"] += 1
        inserted = 0
        for row in rows:
            if self.insert_row(predicate, row, round_):
                inserted += 1
        return inserted

    def discard(self, item: Atom) -> bool:
        """Remove one fact; True when it was present.

        Its terms stay in the dictionary, so ids remain stable for
        anything compiled against them.
        """
        relation = self._relations.get(item.predicate)
        if relation is None:
            return False
        row = self._row_of(item)
        return row is not None and relation.remove(row)

    def buffer(self, item: Atom, round_: int = 0) -> None:
        """Alias for :meth:`add`; the RAM store has no write buffer."""
        self.add(item, round_=round_)

    def flush(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(rel.rows) for rel in self._relations.values())

    def __contains__(self, item: Atom) -> bool:
        relation = self._relations.get(item.predicate)
        if relation is None:
            return False
        row = self._row_of(item)
        return row is not None and row in relation.rows

    def __iter__(self) -> Iterator[Atom]:
        for predicate in list(self._relations):
            yield from self.facts(predicate)

    def predicates(self) -> set[Predicate]:
        return {p for p, rel in self._relations.items() if rel.rows}

    def facts(self, predicate: Predicate) -> Iterator[Atom]:
        relation = self._relations.get(predicate)
        if relation is None:
            return
        for row in relation.rows:
            self.stats.counters["store.rows_scanned"] += 1
            yield self._decode(predicate, row)

    def max_round(self) -> int:
        return self._max_round

    def atoms_in_round(self, round_: int) -> frozenset[Atom]:
        collected = []
        for predicate, relation in self._relations.items():
            if not relation.by_round.get(round_):
                continue
            for row, tag in relation.rows.items():
                if tag == round_:
                    self.stats.counters["store.rows_scanned"] += 1
                    collected.append(self._decode(predicate, row))
        return frozenset(collected)

    def count_in_round(self, round_: int) -> int:
        """How many facts carry round tag ``round_`` (no decode)."""
        return sum(
            rel.by_round.get(round_, 0) for rel in self._relations.values()
        )

    def digest(self) -> str:
        """Content digest, rendered from the term dictionary's displays.

        Matches :func:`~repro.storage.base.content_digest` of the same
        facts exactly — no ``Atom`` objects are built.
        """
        rendered: list[str] = []
        for predicate, relation in self._relations.items():
            name = predicate.name
            for row in relation.rows:
                inner = ",".join(self.display_of(term_id) for term_id in row)
                rendered.append(f"{name}({inner})")
        return content_digest(rendered)

    def to_instance(self) -> Instance:
        return Instance(self)

    def clear_facts(self) -> None:
        """Drop every stored fact, keeping the term dictionary.

        ``OMQASession`` reloads a different instance through this: term
        ids stay stable, so anything compiled against them (columnar
        query plans, cached rows elsewhere) remains meaningful.
        """
        for predicate in list(self._relations):
            self._relations[predicate] = _Relation(predicate.arity)
        self._max_round = 0

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def get_meta(self, key: str, default: "str | None" = None) -> "str | None":
        return self._meta.get(key, default)

    def set_meta(self, key: str, value: str) -> None:
        self._meta[key] = value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._relations.clear()
        self._meta.clear()

    def __enter__(self) -> "ColumnarStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ColumnarStore({len(self._relations)} relations, "
            f"{len(self)} facts, {len(self._term_rows)} terms)"
        )
