"""Provenance over chase results: birth atoms, frontiers, parents, ancestors.

This module turns the per-atom :class:`~repro.chase.engine.Derivation`
records of the engine into the notions the paper uses:

* the **frontier** ``fr(alpha)`` of a produced atom (Observation 9 —
  well-defined because any two derivations of the same atom agree on it),
* the **birth atom** of a chase-invented term (Observation 10 — the unique
  atom containing the term outside its frontier),
* **parent** and **ancestor** functions (Appendix A) including the
  *connected* variants that ignore nullary parents, used by the Crucial
  Lemma (Lemma 77).
"""

from __future__ import annotations

from typing import Iterable

from ..logic.atoms import Atom
from ..logic.terms import FunctionTerm, Term
from .engine import ChaseResult, Derivation


def frontier_of(result: ChaseResult, item: Atom) -> set[Term]:
    """``fr(alpha)`` for a produced atom (Observation 9)."""
    derivation = result.derivations.get(item)
    if derivation is None:
        raise KeyError(f"{item!r} was not produced by this chase")
    return derivation.frontier_image()


def invented_terms(result: ChaseResult) -> set[Term]:
    """Terms of the chase that are not in the base instance's domain."""
    return result.instance.domain() - result.base.domain()


def birth_atom(result: ChaseResult, term: Term) -> Atom:
    """The unique atom in which ``term`` is born (Observation 10).

    Defined for chase-invented terms only: the atom containing ``term``
    outside of its frontier.
    """
    if term in result.base.domain():
        raise ValueError(f"{term!r} belongs to the base instance")
    candidates = [
        item
        for item in result.instance.containing(term)
        if item in result.derivations and term not in frontier_of(result, item)
    ]
    if not candidates:
        raise KeyError(f"no birth atom found for {term!r}")
    births = set(candidates)
    if len(births) > 1:
        raise AssertionError(
            f"Observation 10 violated: {term!r} has {len(births)} birth atoms"
        )
    return births.pop()


def parents(result: ChaseResult, item: Atom) -> list[Atom]:
    """``par(alpha)``: the body image of the recorded derivation.

    For base atoms the paper's convention makes the atom its own ancestor;
    we return an empty parent list and let :func:`ancestors` implement the
    base case.
    """
    derivation = result.derivations.get(item)
    if derivation is None:
        return []
    return derivation.body_image()


def connected_parents(result: ChaseResult, item: Atom) -> list[Atom]:
    """``cpar(alpha)``: parents that are not nullary atoms (Appendix A)."""
    return [parent for parent in parents(result, item) if parent.predicate.arity > 0]


def ancestors(
    result: ChaseResult,
    item: Atom,
    parent_fn=parents,
    _cache: dict[Atom, frozenset[Atom]] | None = None,
) -> frozenset[Atom]:
    """``anc(alpha)``: the base facts used to derive ``alpha``.

    ``anc(alpha) = {alpha}`` for base atoms, otherwise the union of the
    ancestors of the parents.  ``parent_fn`` may be
    :func:`connected_parents` to obtain ``canc`` instead.
    """
    cache = _cache if _cache is not None else {}

    def walk(current: Atom) -> frozenset[Atom]:
        cached = cache.get(current)
        if cached is not None:
            return cached
        if current in result.base:
            found = frozenset((current,))
        else:
            union: set[Atom] = set()
            for parent in parent_fn(result, current):
                union |= walk(parent)
            found = frozenset(union)
        cache[current] = found
        return found

    return walk(item)


def ancestor_support(result: ChaseResult, items: Iterable[Atom]) -> frozenset[Atom]:
    """Union of the ancestor sets of many atoms (one shared memo table)."""
    cache: dict[Atom, frozenset[Atom]] = {}
    union: set[Atom] = set()
    for item in items:
        union |= ancestors(result, item, _cache=cache)
    return frozenset(union)


def dependents_index(
    derivations: "dict[Atom, Derivation]",
) -> dict[Atom, set[Atom]]:
    """Invert recorded derivations into a parent -> children adjacency.

    The edge set of the provenance DAG walked by DRed over-deletion
    (:func:`repro.incremental.incremental_update`): each produced atom
    points back at its recorded parents (the body image of its
    derivation), so the inverse maps every atom to the atoms whose
    recorded derivation consumed it.  Children are sets: a body that
    uses one parent twice (``E(x, y), E(y, z)`` over a self-loop
    ``E(a, a)``) still contributes one edge, so removing a derivation's
    edges leaves none behind.
    """
    dependents: dict[Atom, set[Atom]] = {}
    for child, derivation in derivations.items():
        link_derivation(dependents, child, derivation)
    return dependents


def link_derivation(
    dependents: dict[Atom, set[Atom]], child: Atom, derivation: "Derivation"
) -> None:
    """Add the edges of ``child``'s recorded derivation to ``dependents``."""
    for parent in derivation.body_image():
        dependents.setdefault(parent, set()).add(child)


def unlink_derivation(
    dependents: dict[Atom, set[Atom]], child: Atom, derivation: "Derivation"
) -> None:
    """Remove those edges again; a parent left without children drops out."""
    for parent in derivation.body_image():
        children = dependents.get(parent)
        if children is not None:
            children.discard(child)
            if not children:
                del dependents[parent]


def deletion_cone(
    removed: Iterable[Atom],
    dependents: dict[Atom, set[Atom]],
    protected,
) -> set[Atom]:
    """The DRed over-deletion set: ``removed`` plus all recorded dependents.

    Walks the dependents adjacency transitively from the removed facts.
    Atoms in ``protected`` (the post-update base instance) are never
    entered into the cone — a base fact needs no derivation to exist —
    but the walk does pass *through* a removed fact's children even when
    those have other derivations; the re-derive probes bring such
    survivors back.  Sound because recorded parents are strictly
    shallower than their children: everything outside the cone is
    derivable from the surviving base by induction on derivation depth.
    """
    deleted: set[Atom] = set(removed)
    stack: list[Atom] = list(deleted)
    while stack:
        parent = stack.pop()
        for child in dependents.get(parent, ()):
            if child in deleted or child in protected:
                continue
            deleted.add(child)
            stack.append(child)
    return deleted


def skolem_depth(term: Term) -> int:
    """Nesting depth of Skolem functors in a term (0 for base elements)."""
    return term.depth()


def derivation_depths(result: ChaseResult) -> dict[Atom, int]:
    """Map every atom of the chase to the round it first appeared in."""
    depths: dict[Atom, int] = {}
    for index, added in enumerate(result.round_added):
        for item in added:
            depths.setdefault(item, index)
    return depths


def _match_ground(pattern: Atom, ground: Atom, binding: dict) -> dict | None:
    """Match a skolemized head atom against a ground chase atom.

    Pattern positions hold frontier variables or Skolem function terms over
    frontier variables; matching binds the frontier consistently.
    """
    if pattern.predicate != ground.predicate:
        return None
    added: dict = {}

    def walk(p: Term, g: Term) -> bool:
        from ..logic.terms import FunctionTerm, Variable

        if isinstance(p, Variable):
            bound = binding.get(p, added.get(p))
            if bound is None:
                added[p] = g
                return True
            return bound == g
        if isinstance(p, FunctionTerm):
            if not isinstance(g, FunctionTerm) or p.functor != g.functor:
                return False
            return all(walk(pa, ga) for pa, ga in zip(p.args, g.args))
        return p == g

    for p, g in zip(pattern.args, ground.args):
        if not walk(p, g):
            return None
    return added


def possible_parent_sets(result: ChaseResult, item: Atom) -> list[list[Atom]]:
    """Every body image that could have produced ``item``.

    The paper stresses (Example 66) that the parent function is a *choice*:
    the same atom may arise from many rule applications.  This enumerates
    them all by unifying ``item`` with every skolemized head atom and
    extending to body matches inside the chase.
    """
    from ..logic.homomorphism import iter_query_homomorphisms
    from .skolem import skolemize

    found: list[list[Atom]] = []
    seen: set[frozenset[Atom]] = set()
    for rule in result.theory:
        skolemized = skolemize(rule)
        for head_atom in skolemized.head:
            binding = _match_ground(head_atom, item, {})
            if binding is None:
                continue
            partial = {
                var: term
                for var, term in binding.items()
                if var in rule.body_variables()
            }
            for sigma in iter_query_homomorphisms(
                rule.body, result.instance, partial
            ):
                parents_image = [a.substitute(sigma) for a in rule.body]
                key = frozenset(parents_image)
                if key not in seen:
                    seen.add(key)
                    found.append(parents_image)
    return found


def possible_ancestors(
    result: ChaseResult,
    items: Iterable[Atom],
    connected_only: bool = False,
) -> frozenset[Atom]:
    """Base facts reachable through *any* possible parent choice.

    The union, over all ancestor functions, of the Lemma-77 left-hand
    sides; computed as graph reachability over possible-parent edges (the
    chase may offer cyclic justifications, which reachability handles).
    ``connected_only`` ignores nullary parents, matching ``canc``.
    """
    reachable_base: set[Atom] = set()
    visited: set[Atom] = set()
    frontier = [item for item in items]
    while frontier:
        current = frontier.pop()
        if current in visited:
            continue
        visited.add(current)
        if current in result.base:
            reachable_base.add(current)
            continue
        for parent_set in possible_parent_sets(result, current):
            for parent in parent_set:
                if connected_only and parent.predicate.arity == 0:
                    continue
                if parent not in visited:
                    frontier.append(parent)
    return frozenset(reachable_base)


def minimal_support(
    result: ChaseResult, item: Atom
) -> frozenset[Atom]:
    """A subset of the base instance from which ``item`` is still derivable.

    Uses the recorded derivation's ancestors — an over-approximation of the
    *minimum* support in general (the chase may have had cheaper ways to
    derive the atom), but exact for the witness families used in the
    experiments, and always sound: chasing the returned subset re-derives
    ``item`` (checked by tests via Observation 8).
    """
    return ancestors(result, item)
