"""The in-RAM fact store: an adapter over :class:`~repro.logic.instance.Instance`.

This backend exists so every storage-layer consumer (checkpointing, the
CLI's backend switch, equivalence tests) can be written once against the
:class:`~repro.storage.base.FactStore` contract and run unchanged over
RAM or SQLite.  It adds exactly one thing to ``Instance``: the per-fact
round tag that checkpointing needs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..logic.atoms import Atom
from ..logic.instance import Instance
from ..logic.signature import Predicate
from ..telemetry import Telemetry
from .base import instance_digest


class MemoryStore:
    """A :class:`~repro.storage.base.FactStore` over a plain ``Instance``."""

    def __init__(self, instance: Instance | None = None) -> None:
        self._instance = instance.copy() if instance is not None else Instance()
        self._round_of: dict[Atom, int] = {item: 0 for item in self._instance}
        self._meta: dict[str, str] = {}
        self.stats = Telemetry()

    @property
    def backend(self) -> str:
        return "memory"

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add(self, item: Atom, round_: int = 0) -> bool:
        self.stats.counters["store.writes"] += 1
        added = self._instance.add(item)
        if added:
            self._round_of[item] = round_
        return added

    def add_many(self, items: Iterable[Atom], round_: int = 0) -> int:
        added = 0
        self.stats.counters["store.batches"] += 1
        for item in items:
            self.stats.counters["store.writes"] += 1
            if self._instance.add(item):
                self._round_of[item] = round_
                added += 1
        return added

    def buffer(self, item: Atom, round_: int = 0) -> None:
        """RAM has no write buffer; equivalent to :meth:`add`."""
        self.add(item, round_)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instance)

    def __contains__(self, item: Atom) -> bool:
        return item in self._instance

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._instance)

    def predicates(self) -> set[Predicate]:
        return self._instance.predicates()

    def facts(self, predicate: Predicate) -> Iterator[Atom]:
        return iter(self._instance.with_predicate(predicate))

    def max_round(self) -> int:
        return max(self._round_of.values(), default=0)

    def atoms_in_round(self, round_: int) -> frozenset[Atom]:
        return frozenset(
            item for item, tag in self._round_of.items() if tag == round_
        )

    def count_in_round(self, round_: int) -> int:
        return sum(1 for tag in self._round_of.values() if tag == round_)

    def get_meta(self, key: str, default: "str | None" = None) -> "str | None":
        return self._meta.get(key, default)

    def set_meta(self, key: str, value: str) -> None:
        self._meta[key] = value

    def digest(self) -> str:
        return instance_digest(self._instance)

    def to_instance(self) -> Instance:
        return self._instance.copy()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Nothing buffered in RAM."""

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "MemoryStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"MemoryStore({len(self._instance)} facts)"
