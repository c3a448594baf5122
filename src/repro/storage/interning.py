"""Shared term-interning machinery for id-native fact stores.

Both the SQLite store and the in-RAM columnar store keep a **term
dictionary**: every term — constant, variable (instances may legally
contain variables, see Observation 31) or Skolem function term — is
assigned one integer id and referenced by that id everywhere else.
Identity is structural, one tuple **key** per term:

``("c", name)``
    a constant;
``("v", name)``
    a variable;
``("f", functor, child_ids)``
    a function term over the *child ids* (a tuple), so deep Skolem
    trees cost O(1) per node, not O(depth) per mention — Definition 6
    names a Skolem term by its functor and its children.

Alongside the key each entry carries ``display``, the term's repr, so
fact reprs — and hence :func:`~repro.storage.base.content_digest`
checksums — render straight from the dictionary without rebuilding
Python terms.  Because both backends intern through this one module,
equal facts produce equal digests regardless of backend.

:class:`TermInterningMixin` implements the shared surface
(``intern_term``/``intern_function``/``function_parts``/``term_id``/
``term_by_id``/``decode_rows``/``display_of``) and the fact codec
(``_encode`` interns an atom's terms into an id row, ``_row_of`` looks
them up without interning) over three storage
primitives a concrete store provides:

``_dict_lookup(key)``
    the id of an existing entry, or ``None``;
``_dict_insert(key, display)``
    append a new entry (the caller has already checked absence) and
    return its id, counting it under ``store.terms_interned``;
``_dict_fetch(term_id)``
    the ``(key, display)`` entry for an id, or ``None``.

How a key is stored is the backend's business: the columnar store
keeps the tuples themselves, the SQLite store encodes them as
``repro_terms`` rows (its row codec is the only place a JSON payload
exists).  The mixin maintains the Python-side caches in front of those
primitives; ``_trim_term_cache`` lets a durable backend bound them
(SQLite caps at 500k entries) while the columnar store — whose caches
*are* the storage — leaves it a no-op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection

from ..logic.terms import Constant, FunctionTerm, Term, Variable

if TYPE_CHECKING:
    from ..logic.atoms import Atom


class TermInterningMixin:
    """Structural term interning over a backend's dictionary primitives."""

    def _init_term_caches(self) -> None:
        self._ids_by_term: dict[Term, int] = {}
        self._terms_by_id: dict[int, Term] = {}
        self._ids_by_key: dict[tuple, int] = {}
        self._display_by_id: dict[int, str] = {}

    # Concrete stores override when their caches must stay bounded.
    def _trim_term_cache(self, cache: dict) -> None:
        pass

    # ------------------------------------------------------------------
    # Storage primitives (implemented by the concrete store)
    # ------------------------------------------------------------------
    def _dict_lookup(self, key: tuple) -> "int | None":
        raise NotImplementedError

    def _dict_insert(self, key: tuple, display: str) -> int:
        raise NotImplementedError

    def _dict_fetch(self, term_id: int) -> "tuple[tuple, str] | None":
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared surface
    # ------------------------------------------------------------------
    def _intern_key(self, key: tuple, display: str) -> int:
        term_id = self._dict_lookup(key)
        if term_id is None:
            term_id = self._dict_insert(key, display)
        self._trim_term_cache(self._ids_by_key)
        self._ids_by_key[key] = term_id
        return term_id

    def _entry(self, term_id: int) -> "tuple[tuple, str]":
        entry = self._dict_fetch(term_id)
        if entry is None:
            raise KeyError(f"no term with id {term_id}")
        return entry

    def intern_term(self, term: Term) -> int:
        """The dictionary id for ``term``, interning it if new."""
        cached = self._ids_by_term.get(term)
        if cached is not None:
            return cached
        if isinstance(term, Constant):
            key = ("c", term.name)
        elif isinstance(term, Variable):
            key = ("v", term.name)
        elif isinstance(term, FunctionTerm):
            key = (
                "f",
                term.functor,
                tuple(self.intern_term(child) for child in term.args),
            )
        else:
            raise TypeError(f"cannot intern {term!r} ({type(term).__name__})")
        term_id = self._ids_by_key.get(key)
        if term_id is None:
            term_id = self._intern_key(
                key, term.name if key[0] != "f" else repr(term)
            )
        self._trim_term_cache(self._ids_by_term)
        self._ids_by_term[term] = term_id
        return term_id

    def intern_function(self, functor: str, child_ids: "tuple[int, ...]") -> int:
        """Intern a function term given *child ids* — the id-native path.

        The store-backed and columnar chases build Skolem terms without
        ever materializing Python ``FunctionTerm`` objects; the display
        string is assembled from the children's displays.
        """
        key = ("f", functor, child_ids)
        cached = self._ids_by_key.get(key)
        if cached is not None:
            return cached
        inner = ",".join(self.display_of(child) for child in child_ids)
        return self._intern_key(key, f"{functor}({inner})")

    def function_parts(self, term_id: int) -> "tuple[str, tuple[int, ...]] | None":
        """``(functor, child_ids)`` of a function term id, else ``None``.

        The inverse of :meth:`intern_function`, read from the key
        without decoding the children: the store chase's re-derive
        probes match a Skolem head slot against a stored id this way.
        """
        key = self._entry(term_id)[0]
        return (key[1], key[2]) if key[0] == "f" else None

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
            key = ("f", term.functor, tuple(child_ids))
        else:
            raise TypeError(f"cannot look up {term!r}")
        cached = self._ids_by_key.get(key)
        if cached is None:
            cached = self._dict_lookup(key)
            if cached is None:
                return None
            self._trim_term_cache(self._ids_by_key)
            self._ids_by_key[key] = cached
        self._trim_term_cache(self._ids_by_term)
        self._ids_by_term[term] = cached
        return cached

    def _encode(self, item: "Atom") -> "tuple[int, ...]":
        """``item``'s id row, interning each term (the fact codec)."""
        return tuple(self.intern_term(term) for term in item.args)

    def _row_of(self, item: "Atom") -> "tuple[int, ...] | None":
        """``item``'s id row without interning; ``None`` when a term is unknown."""
        ids = []
        for term in item.args:
            term_id = self.term_id(term)
            if term_id is None:
                return None
            ids.append(term_id)
        return tuple(ids)

    def term_by_id(self, term_id: int) -> Term:
        """Decode a dictionary id back to a Python term."""
        cached = self._terms_by_id.get(term_id)
        if cached is not None:
            return cached
        key = self._entry(term_id)[0]
        if key[0] == "c":
            term: Term = Constant(key[1])
        elif key[0] == "v":
            term = Variable(key[1])
        else:
            term = FunctionTerm(key[1], tuple(map(self.term_by_id, key[2])))
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
        display = self._entry(term_id)[1]
        self._trim_term_cache(self._display_by_id)
        self._display_by_id[term_id] = display
        return display
