"""Theory registry: one shared :class:`OMQASession` + live store per theory.

The service's concurrency model lives here:

* **One session per theory.**  Every request for a theory goes through
  the same thread-safe :class:`~repro.rewriting.session.OMQASession`,
  so the compiled-rewriting and compiled-SQL caches are shared across
  concurrent requests — the first request for a query shape compiles
  the rewriting once (single-flight, under the session lock) and every
  later request is a ``session.rewrite_cache_hits`` hit.
* **One writer, many readers (WAL).**  Each theory owns a SQLite
  database opened in WAL mode.  Writes (upload / append / retract) are
  serialized per theory by an :class:`asyncio.Lock` held on the event
  loop and executed on the threadpool through
  :func:`~repro.storage.chasestore.update_store_chase`, so the live
  store always holds a *chased* fixpoint.  Reads never take that lock:
  each worker thread keeps its own read connection to the same file
  (WAL readers do not block the writer and vice versa) and answers by
  evaluating the rewriting UCQ as SQL over the chased facts.
* **Versioned readers.**  The writer bumps ``version`` per committed
  update and ``generation`` per replace.  A reader reconciles before
  every query: same generation → refresh the predicate-table catalog
  (interning is append-only, so cached term ids stay valid); new
  generation → reopen the connection (a replace rebuilds the database,
  invalidating interned ids).

Backends map to session strategies through
:data:`~repro.rewriting.session.BACKEND_STRATEGIES`; ``memory`` and
``columnar`` answer through the session, ``sqlite`` through the WAL
reader.  Soundness of the read path: the store holds ``chase(D)`` at a
fixpoint, and for a fixpoint instance evaluating the (complete)
rewriting — or, when the rewriting is incomplete, the query shape
itself — computes ``q(chase(D))``: the kept set always holds the query
or a CQ that contains it, so no boolean fix-up is needed.  Restricting
answer tuples to the *base* domain then yields exactly the certain
answers (the filter ``answer_by_materialization`` applies in memory).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import threading
from pathlib import Path
from typing import Iterable

from ..chase.engine import ChaseBudget
from ..classes import classify
from ..logic.instance import Instance
from ..logic.query import ConjunctiveQuery, UnionOfCQs
from ..logic.terms import Term
from ..logic.tgd import Theory
from ..rewriting.answering import _base_restricted
from ..rewriting.session import BACKEND_STRATEGIES, OMQASession, query_shape
from ..storage.chasestore import chase_into_store, update_store_chase
from ..storage.sqlcompile import evaluate_ucq_sql
from ..storage.sqlite import SQLiteStore

BACKENDS = tuple(BACKEND_STRATEGIES)


def answers_digest(answers: "set[tuple[Term, ...]]") -> str:
    """Order-independent digest of an answer set (the wire contract).

    Mirrors :func:`repro.storage.base.content_digest`'s shape — sha256
    over sorted reprs, truncated to 16 hex — so two backends (or a
    server and a fresh in-process session) agree on a digest exactly
    when they agree on the answers.
    """
    hasher = hashlib.sha256()
    for tup in sorted(repr(t) for t in answers):
        hasher.update(tup.encode("utf8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def answers_to_json(answers: "set[tuple[Term, ...]]") -> list[list[str]]:
    """Answer tuples as sorted lists of term reprs (deterministic wire)."""
    return sorted([repr(term) for term in tup] for tup in answers)


class _Reader:
    """One worker thread's read connection, with reconciliation state."""

    __slots__ = ("store", "version", "generation")

    def __init__(self, store: SQLiteStore, version: int, generation: int):
        self.store = store
        self.version = version
        self.generation = generation


class TheoryEntry:
    """Everything the service holds for one registered theory."""

    def __init__(
        self,
        theory_id: str,
        theory: Theory,
        db_path: Path,
        chase_budget: "ChaseBudget | None" = None,
    ) -> None:
        self.id = theory_id
        self.theory = theory
        self.db_path = Path(db_path)
        self.session = OMQASession(theory, chase_budget=chase_budget)
        report = classify(theory)
        self.classes = dataclasses.asdict(report)
        self.classes["known_bdd_by_syntax"] = report.known_bdd_by_syntax()
        # Serializes upload/append/retract per theory; held on the event
        # loop across the executor hop, so the store-chase writer is
        # single at any moment (the WAL story needs exactly one writer).
        self.write_lock = asyncio.Lock()
        self.base = Instance()
        self.version = 0
        self.generation = 0
        # The writer connection; chased state lives here.  Telemetry is
        # the session's collector, so /metrics shows store.* alongside
        # rewrite.*/chase.*/session.* per theory.
        self.store = SQLiteStore(
            str(self.db_path), telemetry=self.session.stats, wal=True
        )
        chase_into_store(
            theory, Instance(), self.store, budget=self.session.chase_budget
        )
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Writer side (call on the threadpool, under ``write_lock``)
    # ------------------------------------------------------------------
    def apply_update(self, add: Iterable = (), retract: Iterable = ()) -> int:
        """Maintain base + session caches + chased store; new version.

        Raises ``ValueError`` (bad update, e.g. retracting a derived
        fact) or :class:`~repro.storage.chasestore.StoreChaseError`;
        either way the in-memory base is only swapped after the store
        commit succeeded, so readers never observe a half-applied
        update.
        """
        add = list(add)
        retract = list(retract)
        new_base = self.base
        if retract:
            new_base = self.session.retract_facts(new_base, retract)
        if add:
            new_base = self.session.add_facts(new_base, add)
        result = update_store_chase(
            self.store,
            theory=self.theory,
            add=add,
            retract=retract,
            budget=self.session.chase_budget,
        )
        if not result.terminated:
            raise ChaseBudgetExceededInStore(
                "store chase did not reach a fixpoint within "
                f"{self.session.chase_budget}"
            )
        self.base = new_base
        self.version += 1
        return self.version

    def replace(self, instance: Instance) -> int:
        """Reset the theory's data to exactly ``instance`` (re-chased).

        Rebuilds the database file, so interned term ids start over —
        hence the ``generation`` bump that makes every reader reopen.
        """
        self.store.close()
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(str(self.db_path) + suffix)
            if candidate.exists():
                candidate.unlink()
        self.store = SQLiteStore(
            str(self.db_path), telemetry=self.session.stats, wal=True
        )
        result = chase_into_store(
            self.theory, instance, self.store, budget=self.session.chase_budget
        )
        if not result.terminated:
            raise ChaseBudgetExceededInStore(
                "store chase did not reach a fixpoint within "
                f"{self.session.chase_budget}"
            )
        self.base = instance.copy()
        self.version += 1
        self.generation += 1
        return self.version

    def checkpoint(self) -> None:
        """Flush the WAL into the main database file (shutdown path)."""
        self.store.connection.commit()
        if self.store.journal_mode == "wal":
            self.store.connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    # ------------------------------------------------------------------
    # Reader side (call on the threadpool; no locks taken)
    # ------------------------------------------------------------------
    def _reader_store(self) -> SQLiteStore:
        reader: "_Reader | None" = getattr(self._local, "reader", None)
        generation, version = self.generation, self.version
        if reader is None or reader.generation != generation:
            if reader is not None:
                reader.store.close()
            store = SQLiteStore(
                str(self.db_path), telemetry=self.session.stats, wal=True
            )
            reader = _Reader(store, version, generation)
            self._local.reader = reader
        elif reader.version != version:
            # Same database, new committed rounds: refresh the predicate
            # catalog (new tables may exist); interned ids stay valid.
            reader.store.reload_catalog()
            reader.version = version
        return reader.store

    def answer(
        self, query: ConjunctiveQuery, backend: str = "memory"
    ) -> "set[tuple[Term, ...]]":
        """Certain answers for ``query`` over the live instance."""
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if backend != "sqlite":
            return self.session.answer(query, self.base, BACKEND_STRATEGIES[backend])
        # sqlite: evaluate over this thread's WAL reader — prepare() is
        # the only session call, so reads share the rewriting cache but
        # never serialize on store loading.
        prepared = self.session.prepare(query)
        target = (
            prepared.ucq if prepared.complete else UnionOfCQs((query_shape(query),))
        )
        return _base_restricted(
            evaluate_ucq_sql(target, self._reader_store()), self.base
        )

    def close(self) -> None:
        self.session.close()
        self.store.close()
        reader = getattr(self._local, "reader", None)
        if reader is not None:
            reader.store.close()
            self._local.reader = None


class ChaseBudgetExceededInStore(RuntimeError):
    """A live update left the store short of a fixpoint (HTTP 409)."""


class TheoryRegistry:
    """The service's id → :class:`TheoryEntry` map."""

    def __init__(
        self, db_dir: "str | Path", chase_budget: "ChaseBudget | None" = None
    ) -> None:
        self.db_dir = Path(db_dir)
        self.db_dir.mkdir(parents=True, exist_ok=True)
        self.chase_budget = chase_budget
        self._entries: dict[str, TheoryEntry] = {}
        self._next_id = 1
        self._lock = threading.Lock()

    def register(self, theory: Theory) -> TheoryEntry:
        with self._lock:
            theory_id = f"t{self._next_id}"
            self._next_id += 1
            entry = TheoryEntry(
                theory_id,
                theory,
                self.db_dir / f"{theory_id}.db",
                chase_budget=self.chase_budget,
            )
            self._entries[theory_id] = entry
            return entry

    def get(self, theory_id: str) -> TheoryEntry:
        with self._lock:
            entry = self._entries.get(theory_id)
        if entry is None:
            raise KeyError(theory_id)
        return entry

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._entries, key=lambda tid: int(tid[1:]))

    def entries(self) -> list[TheoryEntry]:
        return [self.get(tid) for tid in self.ids()]

    def checkpoint_all(self) -> None:
        for entry in self.entries():
            entry.checkpoint()

    def close_all(self) -> None:
        for entry in self.entries():
            entry.close()
