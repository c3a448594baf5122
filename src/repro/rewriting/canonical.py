"""Canonical forms of conjunctive queries, up to variable renaming.

The saturation engine (:mod:`repro.rewriting.engine`) keeps its disjunct
set as a dict keyed by a *canonical isomorphism key*: two CQs share the
key exactly when some variable bijection maps one onto the other while
preserving the answer tuple position-for-position.  That turns the most
common pruning event of the saturation loop — a rewriting step
reproducing a disjunct that is already kept, merely with different
variable names — from two NP-hard containment searches into one dict
probe.  The same key makes the engine's output independent of the fresh
variable naming history.

The key is computed by exact canonical labeling, McKay-style but sized
for CQ bodies (tens of atoms, a handful of existential variables):

1. answer variables are pinned — position ``i`` of the answer tuple
   fixes its (first-occurrence) variable to label ``a_i``, because an
   isomorphism between rewriting disjuncts must preserve the answer
   tuple positionally;
2. existential variables start in color classes refined to a fixed
   point (Weisfeiler-Leman over atom incidences);
3. the remaining symmetry is broken by individualization: branch over
   the members of the first minimal color class, re-refine, recurse,
   and keep the lexicographically smallest complete atom encoding.

The key is exact, not a heuristic invariant: the target cell at each
node is chosen by color alone and refinement is iso-invariant, so an
isomorphism between two queries maps one search tree onto the other
leaf-for-leaf — isomorphic queries reach the same minimal encoding.
Conversely, equal keys exhibit the bijection (label ``i`` to label
``i``) directly, so key equality *implies* isomorphism too.  Highly
symmetric bodies
(variable cliques) cost a factorial number of leaves in the size of one
automorphism class; rewriting workloads keep those classes tiny, and the
result is cached on the query object either way.

Fast path
---------

Most produced CQs never reach step 3.  With at most one existential
variable there is only one labeling, and when refinement (step 2) already
gives every existential variable its own color, individualization has a
single path that assigns exactly those colors as labels (see
:func:`_search_labels`).  Both cases return without a search; the result
is the one the search would compute, so keys and forms do not change.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from ..logic.atoms import Atom
from ..logic.query import ConjunctiveQuery
from ..logic.terms import Constant, FunctionTerm, Term, Variable

# Variable name prefixes of the canonical renaming.  The parser rejects
# leading underscores in user input and the unifier's fresh supply uses
# the ``_rw`` prefix, so canonical names never collide with either.
_ANSWER_PREFIX = "_ca"
_EXIST_PREFIX = "_ce"


# Keys and canonical forms repeat the same few labels over and over; one
# shared object per label keeps every cached key and form small (the
# session holds them for each query shape it has seen).
@lru_cache(maxsize=None)
def _slot(kind: str, index: int) -> tuple[str, int]:
    """The key slot of label ``index`` of ``kind`` (``"a"`` or ``"e"``)."""
    return (kind, index)


@lru_cache(maxsize=None)
def label_variable(prefix: str, index: int) -> Variable:
    """The variable named ``prefix`` + ``index``, one shared object per name."""
    return Variable(f"{prefix}{index}")


def _encode_term(
    term: Term,
    answer_labels: Mapping[Variable, int],
    exist_labels: Mapping[Variable, int],
) -> tuple:
    """One term of the key under a complete labeling (nested tuples)."""
    if isinstance(term, Variable):
        index = answer_labels.get(term)
        if index is not None:
            return _slot("a", index)
        return _slot("e", exist_labels[term])
    if isinstance(term, Constant):
        return ("c", term.name)
    if isinstance(term, FunctionTerm):
        return (
            "f",
            term.functor,
            tuple(
                _encode_term(arg, answer_labels, exist_labels) for arg in term.args
            ),
        )
    return ("g", repr(term))


def _encode_atoms(
    atoms: tuple[Atom, ...],
    answer_labels: Mapping[Variable, int],
    exist_labels: Mapping[Variable, int],
) -> tuple[tuple, ...]:
    return tuple(
        sorted(
            (
                item.predicate.name,
                item.predicate.arity,
                tuple(
                    _encode_term(arg, answer_labels, exist_labels)
                    for arg in item.args
                ),
            )
            for item in atoms
        )
    )


def _slot_marker(
    term: Term, answer_labels: Mapping[Variable, int], variable: Variable
) -> tuple:
    """An iso-invariant marker for one argument slot, seen from ``variable``."""
    if term == variable:
        return ("self",)
    if isinstance(term, Variable):
        index = answer_labels.get(term)
        if index is not None:
            return ("a", index)
        return ("e",)
    if isinstance(term, Constant):
        return ("c", term.name)
    return ("g", repr(term))


def _initial_colors(
    atoms: tuple[Atom, ...],
    existentials: list[Variable],
    answer_labels: Mapping[Variable, int],
) -> dict[Variable, int]:
    """Color each existential variable by its occurrence signature."""
    signatures: dict[Variable, tuple] = {}
    for var in existentials:
        occurrence: list[tuple] = []
        for item in atoms:
            if var not in item.variable_set():
                continue
            occurrence.append(
                (
                    item.predicate.name,
                    item.predicate.arity,
                    tuple(_slot_marker(arg, answer_labels, var) for arg in item.args),
                )
            )
        signatures[var] = tuple(sorted(occurrence))
    return _intern(signatures)


def _intern(signatures: dict[Variable, tuple]) -> dict[Variable, int]:
    """Canonical integer colors: position in the sorted distinct signatures."""
    ordered = sorted(set(signatures.values()))
    ranks = {signature: rank for rank, signature in enumerate(ordered)}
    return {var: ranks[signature] for var, signature in signatures.items()}


def _refine(
    atoms: tuple[Atom, ...],
    existentials: list[Variable],
    answer_labels: Mapping[Variable, int],
    colors: dict[Variable, int],
) -> dict[Variable, int]:
    """Weisfeiler-Leman refinement of ``colors`` to a fixed point."""
    class_count = len(set(colors.values()))
    while class_count < len(existentials):
        signatures: dict[Variable, tuple] = {}
        for var in existentials:
            occurrence: list[tuple] = []
            for item in atoms:
                if var not in item.variable_set():
                    continue
                slots: list[tuple] = []
                for arg in item.args:
                    if arg == var:
                        slots.append(("self",))
                    elif isinstance(arg, Variable) and arg in colors:
                        slots.append(("e", colors[arg]))
                    else:
                        slots.append(_slot_marker(arg, answer_labels, var))
                occurrence.append(
                    (item.predicate.name, item.predicate.arity, tuple(slots))
                )
            signatures[var] = (colors[var], tuple(sorted(occurrence)))
        refined = _intern(signatures)
        refined_count = len(set(refined.values()))
        if refined_count == class_count:
            return refined
        colors = refined
        class_count = refined_count
    return colors


def _search_labels(
    atoms: tuple[Atom, ...],
    existentials: list[Variable],
    answer_labels: Mapping[Variable, int],
) -> dict[Variable, int]:
    """The label assignment minimizing the encoded atom tuple (exact).

    The individualization search is skipped when its result is forced:
    with at most one existential variable there is one assignment, and
    when refinement already gives every variable its own color the search
    has a single path.  On that path each step labels the unlabeled
    variable of least color, and the colors of the others do not move
    (a discrete coloring is a refinement fixed point), so the labels it
    assigns are exactly the base colors.
    """
    if len(existentials) <= 1:
        return {var: 0 for var in existentials}
    base_colors = _refine(
        atoms,
        existentials,
        answer_labels,
        _initial_colors(atoms, existentials, answer_labels),
    )
    if len(set(base_colors.values())) == len(existentials):
        return base_colors
    return _individualize(atoms, existentials, answer_labels, base_colors)


def _individualize(
    atoms: tuple[Atom, ...],
    existentials: list[Variable],
    answer_labels: Mapping[Variable, int],
    base_colors: dict[Variable, int],
) -> dict[Variable, int]:
    """The full individualization search from the refined ``base_colors``."""
    total = len(existentials)
    best: list = [None, None]  # [encoding, labels]

    def descend(assigned: dict[Variable, int], colors: dict[Variable, int]) -> None:
        if len(assigned) == total:
            encoding = _encode_atoms(atoms, answer_labels, assigned)
            if best[0] is None or encoding < best[0]:
                best[0] = encoding
                best[1] = dict(assigned)
            return
        unlabeled = [var for var in existentials if var not in assigned]
        target = min(colors[var] for var in unlabeled)
        next_label = len(assigned)
        for var in unlabeled:
            if colors[var] != target:
                continue
            assigned[var] = next_label
            # Individualize: assigned labels become singleton colors
            # (offset past every refined color), then re-refine.
            branched = dict(colors)
            for fixed, label in assigned.items():
                branched[fixed] = total + len(atoms) + label + 1_000_000
            descend(assigned, _refine(atoms, existentials, answer_labels, branched))
            del assigned[var]

    descend({}, base_colors)
    return best[1] or {}


def _labelings(
    query: ConjunctiveQuery,
) -> tuple[dict[Variable, int], dict[Variable, int]]:
    answer_labels: dict[Variable, int] = {}
    for var in query.answer_vars:
        if var not in answer_labels:
            answer_labels[var] = len(answer_labels)
    existentials = sorted(query.existential_vars(), key=lambda v: v.name)
    exist_labels = _search_labels(query.atoms, existentials, answer_labels)
    return answer_labels, exist_labels


def canonical_key(query: ConjunctiveQuery) -> tuple:
    """The isomorphism key: a hashable nested tuple, cached on the query.

    ``canonical_key(p) == canonical_key(q)`` iff some variable bijection
    maps ``p`` onto ``q`` atom-set-for-atom-set while sending ``p``'s
    answer tuple to ``q``'s position-for-position.
    """
    cached = query.__dict__.get("_canonical_key")
    if cached is None:
        answer_labels, exist_labels = _labelings(query)
        cached = (
            tuple(answer_labels[var] for var in query.answer_vars),
            _encode_atoms(query.atoms, answer_labels, exist_labels),
        )
        object.__setattr__(query, "_canonical_key", cached)
    return cached


def canonical_form(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The canonically renamed and atom-ordered representative, cached.

    The result is a plain :class:`ConjunctiveQuery` equal (as a Python
    value) for every member of the isomorphism class: variables are
    renamed to ``_ca<i>`` / ``_ce<j>`` by their canonical labels and
    atoms are sorted by their encoded form.  Idempotent — the returned
    query is its own canonical form, with key and form pre-cached.
    """
    cached = query.__dict__.get("_canonical_form")
    if cached is None:
        answer_labels, exist_labels = _labelings(query)
        key = (
            tuple(answer_labels[var] for var in query.answer_vars),
            _encode_atoms(query.atoms, answer_labels, exist_labels),
        )
        renaming: dict[Variable, Variable] = {}
        for var, index in answer_labels.items():
            renaming[var] = label_variable(_ANSWER_PREFIX, index)
        for var, index in exist_labels.items():
            renaming[var] = label_variable(_EXIST_PREFIX, index)
        renamed = query.substitute(renaming)
        order = sorted(
            range(len(renamed.atoms)),
            key=lambda position: (
                renamed.atoms[position].predicate.name,
                renamed.atoms[position].predicate.arity,
                tuple(
                    _encode_term(arg, answer_labels, exist_labels)
                    for arg in query.atoms[position].args
                ),
            ),
        )
        cached = ConjunctiveQuery(
            renamed.answer_vars,
            tuple(renamed.atoms[position] for position in order),
        )
        object.__setattr__(cached, "_canonical_key", key)
        object.__setattr__(cached, "_canonical_form", cached)
        object.__setattr__(query, "_canonical_key", key)
        object.__setattr__(query, "_canonical_form", cached)
    return cached


__all__ = ["canonical_form", "canonical_key"]
