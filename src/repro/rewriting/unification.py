"""Piece unification: the single rewriting step behind Theorem 1.

A *piece unifier* between a CQ ``q`` and a (renamed-apart) rule ``rho``
chooses a non-empty subset ``Q'`` of ``q``'s atoms, maps each to a head atom
of ``rho`` with the same predicate, and unifies argument-wise, subject to the
classical safety conditions on existential variables:

* a unification class containing an existential head variable must not
  contain a constant, an answer variable, a *different* existential
  variable, or a query variable that also occurs in ``q \\ Q'`` — such a
  variable would leak a chase-invented term out of the piece;
* answer variables behave like constants (they may absorb frontier
  variables but never merge with each other or with constants).

When a candidate class is "polluted" only by query variables occurring
outside the piece, the piece is *extended* to swallow the offending atoms
(the aggregation step of the XRewrite/König-et-al. algorithms); extension
branches over which head atom each offending atom maps to.

The resulting rewriting step replaces ``Q'`` by the rule body under the
unifier.  Iterating to saturation yields ``rew(psi)``
(:mod:`repro.rewriting.engine`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from ..logic.atoms import Atom
from ..logic.query import ConjunctiveQuery
from ..logic.terms import Constant, FreshVariables, Term, Variable
from ..logic.tgd import TGD


class _UnionFind:
    """Union-find over terms, with per-class metadata checks done later."""

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}

    def find(self, term: Term) -> Term:
        # Iterative two-pass find: recursion here could exhaust the stack
        # on the long parent chains large unification classes build up.
        parent = self._parent
        root = parent.setdefault(term, term)
        while parent[root] != root:
            root = parent[root]
        while parent[term] != root:
            parent[term], term = root, parent[term]
        return root

    def union(self, first: Term, second: Term) -> None:
        self._parent[self.find(first)] = self.find(second)

    def classes(self) -> dict[Term, set[Term]]:
        grouped: dict[Term, set[Term]] = {}
        for term in list(self._parent):
            grouped.setdefault(self.find(term), set()).add(term)
        return grouped


@dataclass(frozen=True)
class PieceUnifier:
    """A validated piece unifier, ready to be applied.

    ``piece`` is the set of query atoms consumed; ``substitution`` maps
    query and rule variables to class representatives.
    """

    rule: TGD
    piece: frozenset[Atom]
    substitution: dict[Variable, Term]

    def rewrite(self, query: ConjunctiveQuery) -> ConjunctiveQuery:
        """Apply the rewriting step: replace the piece by the rule body.

        The substitution is applied to the answer tuple as well: when the
        unifier merges two answer variables the produced disjunct repeats
        the representative (``q(v, v)``-style answers).
        """
        kept = tuple(
            item.substitute(self.substitution)
            for item in query.atoms
            if item not in self.piece
        )
        body = tuple(item.substitute(self.substitution) for item in self.rule.body)
        new_atoms = tuple(dict.fromkeys(kept + body))
        if not new_atoms:
            # The whole query was absorbed and the rule body is empty (a
            # (loop)/(pins)-style rule): represent "true" by the rule body
            # being vacuous — callers treat this as an always-true disjunct.
            raise EmptyRewriting(self)
        new_answers = tuple(
            self.substitution.get(var, var) for var in query.answer_vars
        )
        answer_images = [
            var for var in new_answers if isinstance(var, Variable)
        ]
        if len(answer_images) != len(new_answers):
            raise AssertionError("answer variable substituted by a non-variable")
        return ConjunctiveQuery(tuple(answer_images), new_atoms)


class EmptyRewriting(Exception):
    """A rewriting step consumed the entire query against an empty body.

    This means the original query is entailed by the theory on *any*
    instance whose domain covers the substituted universal variables; the
    engine treats it as an unconditional "true" disjunct for boolean
    queries.
    """

    def __init__(self, unifier: PieceUnifier) -> None:
        super().__init__("rewriting step produced an empty query")
        self.unifier = unifier


def _validated(
    rule: TGD,
    rule_vars: frozenset[Variable],
    query: ConjunctiveQuery,
    piece: dict[Atom, Atom],
    uf: _UnionFind,
) -> "PieceUnifier | set[Variable] | None":
    """Check class safety for the current piece.

    ``rule_vars`` is ``rule.variables()``, computed once per rule by the
    caller.  Returns a :class:`PieceUnifier` when valid, a set of query
    variables whose atoms must be swallowed into the piece when extension
    could help, or ``None`` when the unification is hopeless.
    """
    existential = rule.existential
    answer_vars = set(query.answer_vars)
    outside_atoms = [item for item in query.atoms if item not in piece]
    outside_vars: set[Variable] = set()
    for item in outside_atoms:
        outside_vars.update(item.variable_set())

    classes = uf.classes()
    must_swallow: set[Variable] = set()
    for members in classes.values():
        constants = {term for term in members if isinstance(term, Constant)}
        class_existential = {
            term for term in members if isinstance(term, Variable) and term in existential
        }
        class_answers = {
            term for term in members if isinstance(term, Variable) and term in answer_vars
        }
        if len(constants) > 1:
            return None
        if class_existential:
            if len(class_existential) > 1 or constants or class_answers:
                return None
            # No other rule variable may share the class: a frontier
            # variable equated with an existential one would assert
            # ``y = f(y)``, which no chase atom satisfies.
            other_rule_vars = {
                term
                for term in members
                if isinstance(term, Variable)
                and term in rule_vars
                and term not in existential
            }
            if other_rule_vars:
                return None
            leaking = {
                term
                for term in members
                if isinstance(term, Variable)
                and term not in existential
                and term in outside_vars
            }
            if leaking:
                must_swallow |= leaking
        # Two answer variables may merge (the disjunct then repeats the
        # representative in its answer tuple, cf. Theorem 1's phrasing);
        # an answer variable equated with a constant, however, has no CQ
        # form and the unifier is rejected (documented limitation for
        # queries mixing constants and answers).
        if class_answers and constants:
            return None
    if must_swallow:
        return must_swallow

    substitution: dict[Variable, Term] = {}
    for members in classes.values():
        representative = _pick_representative(members, answer_vars, existential)
        for term in members:
            if isinstance(term, Variable) and term != representative:
                substitution[term] = representative
    return PieceUnifier(rule, frozenset(piece), substitution)


def _pick_representative(
    members: set[Term], answer_vars: set[Variable], existential: frozenset[Variable]
) -> Term:
    for term in members:
        if isinstance(term, Constant):
            return term
    for term in members:
        if isinstance(term, Variable) and term in answer_vars:
            return term
    non_existential = [
        term
        for term in members
        if isinstance(term, Variable) and term not in existential
    ]
    if non_existential:
        return sorted(non_existential, key=lambda v: v.name)[0]
    return sorted(members, key=repr)[0]


def _unify_pairs(piece: dict[Atom, Atom]) -> _UnionFind | None:
    uf = _UnionFind()
    for query_atom, head_atom in piece.items():
        if query_atom.predicate != head_atom.predicate:
            return None
        for query_term, head_term in zip(query_atom.args, head_atom.args):
            uf.union(query_term, head_term)
    return uf


def iter_piece_unifiers(
    query: ConjunctiveQuery, rule: TGD, fresh: FreshVariables
) -> Iterator[PieceUnifier]:
    """All (extension-closed) piece unifiers of ``query`` with ``rule``.

    The rule is renamed apart from ``query`` with ``fresh`` first; see
    :func:`renamed_piece_unifiers` for the enumeration.
    """
    renamed = rule.rename_apart(fresh)
    yield from renamed_piece_unifiers(query, renamed, frozenset(renamed.variables()))


def renamed_piece_unifiers(
    query: ConjunctiveQuery, renamed: TGD, rule_vars: frozenset[Variable]
) -> Iterator[PieceUnifier]:
    """The piece unifiers of ``query`` with a rule already renamed apart.

    ``renamed`` must share no variable with ``query``, and ``rule_vars``
    is its variable set.  The saturation engine renames each rule once per
    theory and calls this directly.  Enumeration starts from every single
    (query atom, head atom) pair and extends pieces only when class safety
    demands it, so the unifiers produced are the most general ones.
    """
    head_atoms = list(renamed.head)
    seen_pieces: set[frozenset[tuple[Atom, Atom]]] = set()

    def explore(piece: dict[Atom, Atom]) -> Iterator[PieceUnifier]:
        key = frozenset(piece.items())
        if key in seen_pieces:
            return
        seen_pieces.add(key)
        uf = _unify_pairs(piece)
        if uf is None:
            return
        verdict = _validated(renamed, rule_vars, query, piece, uf)
        if verdict is None:
            return
        if isinstance(verdict, PieceUnifier):
            yield verdict
            return
        # Extend: every atom containing a leaking variable must join the
        # piece; branch over head-atom choices for each such atom.
        offenders = [
            item
            for item in query.atoms
            if item not in piece and item.variable_set() & verdict
        ]
        if not offenders:
            return
        choice_lists = []
        for offender in offenders:
            options = [h for h in head_atoms if h.predicate == offender.predicate]
            if not options:
                return
            choice_lists.append([(offender, option) for option in options])
        for combo in itertools.product(*choice_lists):
            extended = dict(piece)
            extended.update(dict(combo))
            yield from explore(extended)

    for head_atom in head_atoms:
        for query_atom in query.atoms:
            if query_atom.predicate != head_atom.predicate:
                continue
            yield from explore({query_atom: head_atom})
