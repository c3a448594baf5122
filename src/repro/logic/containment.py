"""CQ containment, equivalence, cores and UCQ minimization.

The paper (Section 2) says: ``phi(y)`` *contains* ``psi(y)`` iff every
structure satisfying ``phi`` satisfies ``psi`` with the same answers —
equivalently, iff there is a homomorphism from ``psi`` to ``phi`` (seen as
structures) that is the identity on the answer variables.  We follow that
orientation: :func:`is_contained_in(phi, psi)` asks whether ``psi`` is the
more general query.

Rewriting sets (Theorem 1) must be *minimal*: no disjunct contained in
another.  :func:`minimize_ucq` enforces exactly that.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .homomorphism import iter_pattern_homomorphisms
from .instance import Instance
from .query import ConjunctiveQuery, UnionOfCQs
from .terms import Term, Variable


def is_contained_in(phi: ConjunctiveQuery, psi: ConjunctiveQuery) -> bool:
    """``phi`` contains ``psi`` in the paper's sense: phi's answers are
    always psi's answers.

    Checked via Chandra–Merlin: evaluate ``psi`` over the canonical instance
    of ``phi`` asking for ``phi``'s own answer variables as the answer.
    """
    if len(phi.answer_vars) != len(psi.answer_vars):
        raise ValueError("containment needs queries of the same answer arity")
    canonical = phi.canonical_instance()
    from .homomorphism import consistent_binding

    partial = consistent_binding(psi.answer_vars, phi.answer_vars)
    if partial is None:
        # psi repeats an answer variable where phi has two distinct ones:
        # psi's answers always satisfy the equality, phi's need not — so a
        # homomorphism witnessing containment cannot exist.
        return False
    for _ in iter_pattern_homomorphisms(
        psi.compiled_patterns(), canonical, partial, plan=psi.anchored_join_plan()
    ):
        return True
    return False


def are_equivalent(phi: ConjunctiveQuery, psi: ConjunctiveQuery) -> bool:
    """Mutual containment."""
    return is_contained_in(phi, psi) and is_contained_in(psi, phi)


def core_query(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """An equivalent minimal (core) CQ.

    Repeatedly looks for a proper endomorphism of the canonical instance
    fixing the answer variables and restricts the query to its image.

    A CQ whose atoms have pairwise distinct predicates is returned as is,
    without a search: an endomorphism must map each atom to the only atom
    with its predicate, so it fixes every variable and folds nothing.
    """
    current = query
    while True:
        if len({item.predicate for item in current.atoms}) == len(current.atoms):
            return current
        smaller = _one_folding_step(current)
        if smaller is None:
            return current
        current = smaller


def _one_folding_step(query: ConjunctiveQuery) -> ConjunctiveQuery | None:
    canonical = query.canonical_instance()
    patterns = query.compiled_patterns()
    plan = query.anchored_join_plan()
    variables = sorted(query.variables(), key=lambda v: v.name)
    partial: dict[Variable, Term] = {var: var for var in query.answer_vars}
    for dropped in variables:
        if dropped in query.answer_vars:
            continue
        # Try to fold the query so that `dropped` disappears from the image.
        for hom in iter_pattern_homomorphisms(patterns, canonical, partial, plan=plan):
            if hom[dropped] == dropped:
                continue
            if any(image == dropped for image in hom.values()):
                continue
            folded_atoms = tuple(
                dict.fromkeys(item.substitute(hom) for item in query.atoms)
            )
            if len(folded_atoms) <= len(query.atoms):
                return ConjunctiveQuery(query.answer_vars, folded_atoms)
    return None


def minimize_ucq(disjuncts: Iterable[ConjunctiveQuery], name: str = "") -> UnionOfCQs:
    """Keep only the most general disjuncts (Theorem 1's minimality).

    A disjunct ``phi`` is dropped when some other kept disjunct ``psi``
    contains it (``phi``'s answers are always ``psi``'s answers, so ``phi``
    is redundant in the union).  Each survivor is also replaced by its core.
    """
    cores = [core_query(q) for q in disjuncts]
    kept: list[ConjunctiveQuery] = []
    for candidate in sorted(cores, key=lambda q: q.size):
        redundant = any(is_contained_in(candidate, existing) for existing in kept)
        if not redundant:
            kept.append(candidate)
    return UnionOfCQs(kept, name=name)


def contains_equivalent(
    queries: Sequence[ConjunctiveQuery], candidate: ConjunctiveQuery
) -> bool:
    """Is some query in ``queries`` equivalent to ``candidate``?"""
    return any(are_equivalent(candidate, existing) for existing in queries)


def evaluate_ucq(ucq: UnionOfCQs, instance: Instance) -> set[tuple[Term, ...]]:
    """All answers of a UCQ: the union of its disjuncts' answers."""
    from .homomorphism import evaluate

    answers: set[tuple[Term, ...]] = set()
    for disjunct in ucq:
        answers |= evaluate(disjunct, instance)
    return answers


def ucq_holds(ucq: UnionOfCQs, instance: Instance, answer: Sequence[Term] = ()) -> bool:
    """Does some disjunct hold with the given answer tuple?"""
    from .homomorphism import holds

    return any(holds(disjunct, instance, answer) for disjunct in ucq)
