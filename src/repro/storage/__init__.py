"""Pluggable fact storage behind one ``FactStore`` contract.

Three backends, one registry (:data:`BACKEND_NAMES`, resolved everywhere
through :func:`resolve_backend`): ``"memory"`` adapts the in-RAM
``Instance``, ``"columnar"`` holds interned id tuples with per-position
hash indexes (the columnar chase kernel's data plane), ``"sqlite"``
persists facts with UCQ rewritings compiled to SQL, and runs a
store-backed, resumable chase whose peak RSS is bounded by its batch
size instead of the instance (plus the domain, for theories with
universal head variables).

Layout:

=====================  ===================================================
:mod:`~repro.storage.base`        the :class:`FactStore` protocol,
                                  :func:`content_digest`, :func:`open_store`,
                                  :func:`resolve_backend`
:mod:`~repro.storage.interning`   the shared term-interning mixin
:mod:`~repro.storage.memory`      :class:`MemoryStore` over ``Instance``
:mod:`~repro.storage.columnar`    :class:`ColumnarStore` (id tuples, indexes)
:mod:`~repro.storage.sqlite`      :class:`SQLiteStore` (tables, dictionary)
:mod:`~repro.storage.sqlcompile`  CQ/UCQ → SQL compilation + execution
:mod:`~repro.storage.chasestore`  the chase evaluated inside SQLite
=====================  ===================================================
"""

from .base import (
    BACKEND_NAMES,
    FactStore,
    ResolvedBackend,
    content_digest,
    instance_digest,
    open_store,
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
from .memory import MemoryStore
from .sqlcompile import CompiledQuery, compile_ucq, evaluate_ucq_sql, execute_compiled
from .sqlite import SQLiteStore

__all__ = [
    "BACKEND_NAMES",
    "ColumnarStore",
    "CompiledQuery",
    "FactStore",
    "MemoryStore",
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
    "open_store",
    "resolve_backend",
    "resume_store_chase",
    "update_store_chase",
]
