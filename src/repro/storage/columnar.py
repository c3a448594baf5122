"""The in-RAM columnar fact store: interned ids, flat tuple relations.

This is the data plane behind ``backend="columnar"`` — the default
chase engine since the columnar kernel landed.  Facts are held as flat
tuples of **interned integer term ids** (the same structural dictionary
:class:`~repro.storage.interning.TermInterningMixin` gives the SQLite
store), one :class:`_Relation` per predicate:

``rows: dict[row, None]``
    the tuple store itself, doubling as the dedup set.  A dict used as
    an insertion-ordered set: scans then visit rows in the order they
    were added, so the kernel's matches — and the derivation it records
    for an atom with several — do not depend on hash order, and a full
    scan walks the dict's dense entry array (faster than a set's sparse
    table);
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

The store is a plain set of facts: round tags and chase metadata
belong to the durable
:class:`~repro.storage.sqlite.SQLiteStore` (a chase run's rounds are its
``ChaseResult.round_added``, Observation 8), and the dictionary keeps
each term's tuple key itself, with no text payload.

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

    __slots__ = ("arity", "rows", "indexes")

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.rows: dict[tuple, None] = {}
        self.indexes: tuple[dict[int, set], ...] = tuple(
            {} for _ in range(arity)
        )

    def insert(self, row: tuple) -> bool:
        """Add ``row``; False when already present."""
        if row in self.rows:
            return False
        self.rows[row] = None
        for position, term_id in enumerate(row):
            bucket = self.indexes[position].get(term_id)
            if bucket is None:
                self.indexes[position][term_id] = {row}
            else:
                bucket.add(row)
        return True

    def remove(self, row: tuple) -> bool:
        """Drop ``row`` and its index entries; False when it was absent."""
        if row not in self.rows:
            return False
        del self.rows[row]
        for index, term_id in zip(self.indexes, row):
            bucket = index[term_id]
            bucket.discard(row)
            if not bucket:
                del index[term_id]
        return True


class ColumnarStore(TermInterningMixin):
    """An in-RAM set of facts held as columnar id tuples.

    ``close()`` discards everything.  The key cache inherited from the
    mixin *is* the dictionary's index, so it is never trimmed and
    ``_dict_lookup`` never has a second place to look.
    """

    def __init__(
        self,
        instance: "Iterable[Atom] | None" = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.stats = telemetry if telemetry is not None else Telemetry()
        self._init_term_caches()
        # The dictionary itself: entry i is (key, display) of term id i + 1.
        self._term_rows: list[tuple[tuple, str]] = []
        self._relations: dict[Predicate, _Relation] = {}
        if instance is not None:
            self.add_many(instance)

    # ------------------------------------------------------------------
    # Dictionary primitives (TermInterningMixin contract)
    # ------------------------------------------------------------------
    def _dict_lookup(self, key: tuple) -> "int | None":
        # The key cache is the authoritative index; a miss there is a
        # miss, full stop.
        return None

    def _dict_insert(self, key: tuple, display: str) -> int:
        self._term_rows.append((key, display))
        self.stats.counters["store.terms_interned"] += 1
        return len(self._term_rows)

    def _dict_fetch(self, term_id: int) -> "tuple[tuple, str] | None":
        if 1 <= term_id <= len(self._term_rows):
            return self._term_rows[term_id - 1]
        return None

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def relation_for(self, predicate: Predicate) -> _Relation:
        """The predicate's relation, created on first sight."""
        relation = self._relations.get(predicate)
        if relation is None:
            relation = _Relation(predicate.arity)
            self._relations[predicate] = relation
        return relation

    def _decode(self, predicate: Predicate, row: tuple) -> Atom:
        return Atom(predicate, tuple(self.term_by_id(t) for t in row))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert_row(self, predicate: Predicate, row: tuple) -> bool:
        """Insert one id-native row; True when it was new."""
        self.stats.counters["store.writes"] += 1
        return self.relation_for(predicate).insert(row)

    def add(self, item: Atom) -> bool:
        """Add one fact; returns True when it was not present before."""
        return self.insert_row(item.predicate, self._encode(item))

    def add_many(self, items: Iterable[Atom]) -> int:
        """Add facts in bulk; returns how many were *new*."""
        self.stats.counters["store.batches"] += 1
        added = 0
        for item in items:
            if self.add(item):
                added += 1
        return added

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

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._relations.clear()

    def __enter__(self) -> "ColumnarStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ColumnarStore({len(self._relations)} relations, "
            f"{len(self)} facts, {len(self._term_rows)} terms)"
        )
