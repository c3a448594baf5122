"""The :class:`FactStore` contract: what a fact backend must provide.

The paper's BDD/FUS property (Theorem 1, Theorem 5's five-operation
procedure) exists so that certain answers can be computed by evaluating a
UCQ rewriting *directly over the database* — no chase, no materialized
``Ch(T, D)`` in RAM.  A :class:`FactStore` is that database: a set of
facts behind a small uniform interface with two implementations,

* :class:`repro.storage.memory.MemoryStore` — an adapter over the
  existing in-RAM :class:`~repro.logic.instance.Instance`, and
* :class:`repro.storage.sqlite.SQLiteStore` — a durable SQLite database
  (one table per predicate, per-position indexes, an interned term
  dictionary) whose join engine evaluates compiled rewritings
  (:mod:`repro.storage.sqlcompile`) without ever materializing the
  facts in Python.

Stores tag every fact with a *round* (0 for base facts), which is what
makes the store-backed chase (:mod:`repro.storage.chasestore`)
round-exact and resumable: its rounds are the ``round_added`` partition
of a :class:`~repro.chase.engine.ChaseResult`.

Content identity across backends is a :func:`content_digest`: the
sha256 of the sorted fact reprs, truncated exactly like the bench
guard's instance checksums — an :class:`Instance` and its store
round-trip digest-compare equal, whichever backend holds the facts.
A holder of an instance's sorted reprs (:func:`sorted_reprs`) derives
the digest of an updated instance in O(change) with
:func:`derive_digest`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, runtime_checkable

from ..logic.atoms import Atom
from ..logic.instance import Instance
from ..logic.signature import Predicate
from ..telemetry import Telemetry


def content_digest(atoms: Iterable[Atom] | Iterable[str]) -> str:
    """The repository-wide fact-set checksum: sha256 of sorted reprs.

    Accepts atoms or pre-rendered repr strings (the SQLite backend
    renders reprs from its term dictionary without building ``Atom``
    objects).  The 16-hex-digit truncation matches the bench guard's
    instance checksums, so digests are comparable across the guard
    baselines, ``Instance`` contents and every store backend.
    """
    return digest_of_sorted(
        sorted(item if isinstance(item, str) else repr(item) for item in atoms)
    )


def digest_of_sorted(rendered: list[str]) -> str:
    """:func:`content_digest` of fact reprs that are already sorted."""
    return hashlib.sha256("\n".join(rendered).encode("utf8")).hexdigest()[:16]


def instance_digest(instance: Instance) -> str:
    """:func:`content_digest` of an instance's facts, cached on the instance.

    The value is computed on the first call and kept in the instance's
    ``_digest`` slot until an ``add`` or ``discard`` that changes the
    fact set clears it, so repeated calls over unchanged content cost
    O(1).  ``copy()`` carries the cached value over.
    """
    digest = instance._digest
    if digest is None:
        digest = instance._digest = content_digest(instance)
    return digest


def sorted_reprs(instance: Instance) -> list[str]:
    """The sorted fact reprs :func:`content_digest` hashes.

    Caches their digest on the instance, like :func:`instance_digest`.
    """
    rendered = sorted(repr(item) for item in instance)
    instance._digest = digest_of_sorted(rendered)
    return rendered


def derive_digest(
    updated: Instance,
    reprs: list[str],
    added: Iterable[Atom],
    removed: Iterable[Atom],
) -> list[str]:
    """``updated``'s sorted reprs, derived from its parent's; caches its digest.

    ``reprs`` are the parent's :func:`sorted_reprs`, and ``updated`` is
    the parent minus ``removed`` (facts it held), then plus ``added``
    (facts that were missing).  The parent's list is left as it was: a
    copy is edited by bisection, one repr per changed fact, and hashed
    once — O(change) edits plus one sha256 instead of rendering and
    sorting every fact, and byte-identical to :func:`content_digest` of
    ``updated``.
    """
    rendered = reprs.copy()
    for item in removed:
        del rendered[bisect_left(rendered, repr(item))]
    for item in added:
        insort(rendered, repr(item))
    updated._digest = digest_of_sorted(rendered)
    return rendered


@runtime_checkable
class FactStore(Protocol):
    """What every fact backend provides.

    The contract is deliberately small — the evaluation fast path lives
    in backend-specific code (:mod:`repro.storage.sqlcompile` for
    SQLite, the homomorphism engine for memory); the protocol covers
    loading, membership, round bookkeeping and content identity.

    ``stats`` is a :class:`~repro.telemetry.Telemetry` carrying the
    ``store.*`` counters (``store.writes``, ``store.batches``,
    ``store.sql_queries``, ``store.rows_scanned``, ...).
    """

    stats: Telemetry

    @property
    def backend(self) -> str:
        """Backend tag: one of :data:`BACKEND_NAMES`."""
        ...

    def add(self, item: Atom, round_: int = 0) -> bool:
        """Add one fact (tagged with ``round_``); True when new."""
        ...

    def add_many(self, items: Iterable[Atom], round_: int = 0) -> int:
        """Add many facts in one batch; returns how many were new."""
        ...

    def __len__(self) -> int: ...

    def __contains__(self, item: Atom) -> bool: ...

    def __iter__(self) -> Iterator[Atom]: ...

    def predicates(self) -> set[Predicate]:
        """Predicates with at least one stored fact."""
        ...

    def facts(self, predicate: Predicate) -> Iterator[Atom]:
        """All stored facts over ``predicate``."""
        ...

    def max_round(self) -> int:
        """The highest round tag present (0 for a base-only store)."""
        ...

    def atoms_in_round(self, round_: int) -> frozenset[Atom]:
        """The facts first added in round ``round_``."""
        ...

    def digest(self) -> str:
        """The :func:`content_digest` of the stored facts."""
        ...

    def to_instance(self) -> Instance:
        """Materialize the store as an in-RAM :class:`Instance`."""
        ...

    def flush(self) -> None:
        """Push any buffered writes to the backing medium."""
        ...

    def close(self) -> None:
        """Flush and release backend resources (idempotent)."""
        ...


# The one registry of backend spellings.  Every user-facing selector —
# ``chase(backend=)``, ``answer(backend=)``, ``OMQASession``, the CLI's
# ``--backend/--db`` — resolves through :func:`resolve_backend`, so a new
# backend registers here and nowhere else.
BACKEND_NAMES: tuple[str, ...] = ("memory", "columnar", "sqlite")


@dataclass(frozen=True)
class ResolvedBackend:
    """A validated backend choice: canonical name plus optional path."""

    name: str
    path: "str | None" = None

    def open(self, telemetry: "Telemetry | None" = None) -> FactStore:
        """Instantiate the chosen backend's :class:`FactStore`."""
        if self.name == "memory":
            from .memory import MemoryStore

            return MemoryStore()
        if self.name == "columnar":
            from .columnar import ColumnarStore

            return ColumnarStore(telemetry=telemetry)
        from .sqlite import SQLiteStore

        return SQLiteStore(
            self.path if self.path is not None else ":memory:",
            telemetry=telemetry,
        )


def resolve_backend(
    spec: "str | None" = None,
    path: "str | None" = None,
    *,
    default: str = "memory",
    allowed: "tuple[str, ...] | None" = None,
    hint: "str | None" = None,
) -> ResolvedBackend:
    """Validate a backend spec against the single registry.

    ``spec`` is one of :data:`BACKEND_NAMES` (case-insensitive, ``None``
    meaning ``default``); ``path`` is the database path and is only
    meaningful for ``"sqlite"``.  Callers supporting a subset pass
    ``allowed`` (and optionally ``hint``, appended to the rejection
    message to point at the right API).  All backend error strings in
    the package come from here, so new backends register in one place.
    """
    name = default if spec is None else str(spec).strip().lower()
    if name not in BACKEND_NAMES:
        choices = ", ".join(repr(n) for n in BACKEND_NAMES)
        raise ValueError(f"backend must be one of {choices}, got {spec!r}")
    if allowed is not None and name not in allowed:
        choices = ", ".join(repr(n) for n in allowed)
        message = f"backend {name!r} is not supported here; expected {choices}"
        if hint:
            message = f"{message} ({hint})"
        raise ValueError(message)
    if path is not None and name != "sqlite":
        raise ValueError(
            f"a database path only applies to the 'sqlite' backend, "
            f"got backend={name!r} with path {path!r}"
        )
    return ResolvedBackend(name=name, path=path)


def open_store(path: "str | None" = None, **kwargs) -> FactStore:
    """Open a fact store: in-memory by default, SQLite when given a path.

    ``open_store(None)`` returns a fresh
    :class:`~repro.storage.memory.MemoryStore`; any path (including
    SQLite's ``":memory:"``) returns a
    :class:`~repro.storage.sqlite.SQLiteStore` — the idiom behind the
    CLI's ``--backend sqlite --db PATH`` and
    ``OMQASession(db_path=...)``.
    """
    if path is None:
        from .memory import MemoryStore

        return MemoryStore(**kwargs)
    from .sqlite import SQLiteStore

    return SQLiteStore(path, **kwargs)
