"""Content identity and backend selection for the fact stores.

The paper's BDD/FUS property (Theorem 1, Theorem 5's five-operation
procedure) exists so that certain answers can be computed by evaluating a
UCQ rewriting *directly over the database* — no chase, no materialized
``Ch(T, D)`` in RAM.  Two stores hold such databases, each with one job:

* :class:`repro.storage.columnar.ColumnarStore` — an in-RAM set of
  interned id rows, the data plane of the columnar chase kernel and of
  ``OMQASession``'s ``columnar`` strategy, and
* :class:`repro.storage.sqlite.SQLiteStore` — a durable SQLite database
  (one table per predicate, per-position indexes, an interned term
  dictionary) whose join engine evaluates compiled rewritings
  (:mod:`repro.storage.sqlcompile`) without ever materializing the
  facts in Python.  Only this store tags facts with a *round* (0 for
  base facts) and keeps chase state, which is what makes the
  store-backed chase (:mod:`repro.storage.chasestore`) round-exact and
  resumable: its rounds are the ``round_added`` partition of a
  :class:`~repro.chase.engine.ChaseResult`.

Content identity across backends is a :func:`content_digest`: the
sha256 of the sorted fact reprs, truncated exactly like the bench
guard's instance checksums — an :class:`Instance` and its store
round-trip digest-compare equal, whichever backend holds the facts.
A holder of an instance's sorted reprs (:func:`sorted_reprs`) derives
the digest of an updated instance in O(change) with
:func:`derive_digest`.  :func:`resolve_backend` validates every
user-facing backend choice against :data:`BACKEND_NAMES`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable

from ..logic.atoms import Atom
from ..logic.instance import Instance


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
