"""Shared term-interning machinery for id-native fact stores.

Both the SQLite store and the in-RAM columnar store keep a **term
dictionary**: every term — constant, variable (instances may legally
contain variables, see Observation 31) or Skolem function term — is
assigned one integer id and referenced by that id everywhere else.
Identity is structural, keyed on ``(kind, payload)``:

``("c", name)``
    a constant;
``("v", name)``
    a variable;
``("f", json([functor, child_ids]))``
    a function term over the *child ids*, so deep Skolem trees cost
    O(1) per node, not O(depth) per mention.

Alongside the payload each entry carries ``display``, the term's repr,
so fact reprs — and hence :func:`~repro.storage.base.content_digest`
checksums — render straight from the dictionary without rebuilding
Python terms.  Because both backends intern through this one module,
equal facts produce equal digests regardless of backend.

:class:`TermInterningMixin` implements the shared surface
(``intern_term``/``intern_function``/``function_parts``/``term_id``/
``term_by_id``/``decode_rows``/``display_of``) over three storage
primitives a concrete store provides:

``_dict_lookup(kind, payload)``
    the id of an existing entry, or ``None``;
``_dict_insert(kind, payload, display)``
    append a new entry (the caller has already checked absence) and
    return its id, counting it under ``store.terms_interned``;
``_dict_fetch(term_id)``
    the ``(kind, payload, display)`` row for an id, or ``None``.

The mixin maintains the Python-side caches in front of those
primitives; ``_trim_term_cache`` lets a durable backend bound them
(SQLite caps at 500k entries) while the columnar store — whose caches
*are* the storage — leaves it a no-op.
"""

from __future__ import annotations

import json
from typing import Collection

from ..logic.terms import Constant, FunctionTerm, Term, Variable


class TermInterningMixin:
    """Structural term interning over a backend's dictionary primitives."""

    def _init_term_caches(self) -> None:
        self._ids_by_term: dict[Term, int] = {}
        self._terms_by_id: dict[int, Term] = {}
        self._ids_by_payload: dict[tuple[str, str], int] = {}
        self._display_by_id: dict[int, str] = {}
        # (functor, child_ids) -> id, so the id-native hot path skips the
        # json payload encoding on every re-derivation of a Skolem term.
        self._ids_by_function: dict[tuple, int] = {}
        # id -> (functor, child_ids), or None for a non-function term.
        self._parts_by_id: dict[int, "tuple[str, tuple[int, ...]] | None"] = {}

    # Concrete stores override when their caches must stay bounded.
    def _trim_term_cache(self, cache: dict) -> None:
        pass

    # ------------------------------------------------------------------
    # Storage primitives (implemented by the concrete store)
    # ------------------------------------------------------------------
    def _dict_lookup(self, kind: str, payload: str) -> "int | None":
        raise NotImplementedError

    def _dict_insert(self, kind: str, payload: str, display: str) -> int:
        raise NotImplementedError

    def _dict_fetch(self, term_id: int) -> "tuple[str, str, str] | None":
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared surface
    # ------------------------------------------------------------------
    def _intern_row(self, kind: str, payload: str, display: str) -> int:
        key = (kind, payload)
        cached = self._ids_by_payload.get(key)
        if cached is not None:
            return cached
        term_id = self._dict_lookup(kind, payload)
        if term_id is None:
            term_id = self._dict_insert(kind, payload, display)
        self._trim_term_cache(self._ids_by_payload)
        self._ids_by_payload[key] = term_id
        return term_id

    def intern_term(self, term: Term) -> int:
        """The dictionary id for ``term``, interning it if new."""
        cached = self._ids_by_term.get(term)
        if cached is not None:
            return cached
        if isinstance(term, Constant):
            term_id = self._intern_row("c", term.name, term.name)
        elif isinstance(term, Variable):
            term_id = self._intern_row("v", term.name, term.name)
        elif isinstance(term, FunctionTerm):
            child_ids = [self.intern_term(child) for child in term.args]
            payload = json.dumps([term.functor, child_ids])
            term_id = self._intern_row("f", payload, repr(term))
        else:
            raise TypeError(f"cannot intern {term!r} ({type(term).__name__})")
        self._trim_term_cache(self._ids_by_term)
        self._ids_by_term[term] = term_id
        return term_id

    def intern_function(self, functor: str, child_ids: "tuple[int, ...]") -> int:
        """Intern a function term given *child ids* — the id-native path.

        The store-backed and columnar chases build Skolem terms without
        ever materializing Python ``FunctionTerm`` objects; the display
        string is assembled from the children's displays.
        """
        key = (functor, child_ids)
        cached = self._ids_by_function.get(key)
        if cached is not None:
            return cached
        payload = json.dumps([functor, list(child_ids)])
        cached = self._ids_by_payload.get(("f", payload))
        if cached is None:
            inner = ",".join(self.display_of(child) for child in child_ids)
            cached = self._intern_row("f", payload, f"{functor}({inner})")
        self._trim_term_cache(self._ids_by_function)
        self._ids_by_function[key] = cached
        return cached

    def function_parts(self, term_id: int) -> "tuple[str, tuple[int, ...]] | None":
        """``(functor, child_ids)`` of a function term id, else ``None``.

        The inverse of :meth:`intern_function`, read from the payload
        without decoding the children: the store chase's re-derive
        probes match a Skolem head slot against a stored id this way.
        """
        if term_id in self._parts_by_id:
            return self._parts_by_id[term_id]
        row = self._dict_fetch(term_id)
        if row is None:
            raise KeyError(f"no term with id {term_id}")
        parts = None
        if row[0] == "f":
            functor, child_ids = json.loads(row[1])
            parts = (functor, tuple(child_ids))
        self._trim_term_cache(self._parts_by_id)
        self._parts_by_id[term_id] = parts
        return parts

    def term_id(self, term: Term) -> "int | None":
        """The id of ``term`` if already interned, else ``None``.

        Query compilation uses this for constants: an un-interned
        constant cannot match any stored fact, so its disjunct is
        provably empty.
        """
        cached = self._ids_by_term.get(term)
        if cached is not None:
            return cached
        if isinstance(term, Constant):
            key = ("c", term.name)
        elif isinstance(term, Variable):
            key = ("v", term.name)
        elif isinstance(term, FunctionTerm):
            child_ids = []
            for child in term.args:
                child_id = self.term_id(child)
                if child_id is None:
                    return None
                child_ids.append(child_id)
            key = ("f", json.dumps([term.functor, child_ids]))
        else:
            raise TypeError(f"cannot look up {term!r}")
        cached = self._ids_by_payload.get(key)
        if cached is None:
            cached = self._dict_lookup(*key)
            if cached is None:
                return None
            self._trim_term_cache(self._ids_by_payload)
            self._ids_by_payload[key] = cached
        self._trim_term_cache(self._ids_by_term)
        self._ids_by_term[term] = cached
        return cached

    def term_by_id(self, term_id: int) -> Term:
        """Decode a dictionary id back to a Python term."""
        cached = self._terms_by_id.get(term_id)
        if cached is not None:
            return cached
        row = self._dict_fetch(term_id)
        if row is None:
            raise KeyError(f"no term with id {term_id}")
        kind, payload, _display = row
        if kind == "c":
            term: Term = Constant(payload)
        elif kind == "v":
            term = Variable(payload)
        else:
            functor, child_ids = json.loads(payload)
            term = FunctionTerm(
                functor, tuple(self.term_by_id(child) for child in child_ids)
            )
        self._trim_term_cache(self._terms_by_id)
        self._terms_by_id[term_id] = term
        return term

    def decode_rows(
        self, rows: "Collection[tuple[int, ...]]"
    ) -> "set[tuple[Term, ...]]":
        """The term tuples of id rows of one arity (query answers).

        When every id is cached the rows decode with dictionary lookups
        only; otherwise the whole batch goes through :meth:`term_by_id`,
        which fills the cache and keeps it bounded.
        """
        cached = self._terms_by_id.__getitem__
        try:
            if len(next(iter(rows), ())) == 1:
                return {(cached(row[0]),) for row in rows}
            return {tuple(map(cached, row)) for row in rows}
        except KeyError:
            return {tuple(map(self.term_by_id, row)) for row in rows}

    def display_of(self, term_id: int) -> str:
        """The repr text of a term id, served from the dictionary."""
        cached = self._display_by_id.get(term_id)
        if cached is not None:
            return cached
        row = self._dict_fetch(term_id)
        if row is None:
            raise KeyError(f"no term with id {term_id}")
        display = row[2]
        self._trim_term_cache(self._display_by_id)
        self._display_by_id[term_id] = display
        return display
