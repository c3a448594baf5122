"""Fact storage: an in-RAM id store and a durable SQLite store.

Every backend spelling (:data:`BACKEND_NAMES`: ``"memory"``,
``"columnar"``, ``"sqlite"``) is resolved through
:func:`resolve_backend`.  ``"memory"`` is the object engine over an
in-RAM ``Instance`` and needs no store.  The other two each have one
store with one job: :class:`ColumnarStore` holds interned id tuples with
per-position hash indexes (the columnar chase kernel's and the session's
data plane, a plain set of facts), and :class:`SQLiteStore` persists
facts with their round tags, the term dictionary and chase state.  UCQ
rewritings compile to SQL over it, and it runs a store-backed, resumable
chase whose peak RSS is bounded by its batch size instead of the
instance (plus the domain, for theories with universal head variables).

Layout:

=====================  ===================================================
:mod:`~repro.storage.base`        :func:`content_digest`,
                                  :func:`resolve_backend`
:mod:`~repro.storage.interning`   the shared term-interning mixin
:mod:`~repro.storage.columnar`    :class:`ColumnarStore` (id tuples, indexes)
:mod:`~repro.storage.sqlite`      :class:`SQLiteStore` (tables, dictionary)
:mod:`~repro.storage.sqlcompile`  CQ/UCQ → SQL compilation + execution
:mod:`~repro.storage.chasestore`  the chase evaluated inside SQLite
=====================  ===================================================
"""

from .base import (
    BACKEND_NAMES,
    ResolvedBackend,
    content_digest,
    instance_digest,
    resolve_backend,
)
from .columnar import ColumnarStore
from .chasestore import (
    StoreChaseError,
    StoreChaseResult,
    chase_into_store,
    resume_store_chase,
    update_store_chase,
)
from .sqlcompile import CompiledQuery, compile_ucq, evaluate_ucq_sql, execute_compiled
from .sqlite import SQLiteStore

__all__ = [
    "BACKEND_NAMES",
    "ColumnarStore",
    "CompiledQuery",
    "ResolvedBackend",
    "SQLiteStore",
    "StoreChaseError",
    "StoreChaseResult",
    "chase_into_store",
    "compile_ucq",
    "content_digest",
    "evaluate_ucq_sql",
    "execute_compiled",
    "instance_digest",
    "resolve_backend",
    "resume_store_chase",
    "update_store_chase",
]
