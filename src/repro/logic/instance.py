"""Database instances (fact sets / structures).

An :class:`Instance` is a set of atoms with secondary indexes that make
homomorphism search (and thus chase steps, query evaluation and containment
checks) efficient:

* by predicate,
* by ``(predicate, position, term)``, and
* by term (every fact mentioning a term, powering ``containing()`` and the
  active-domain queries in O(result)).

Following the paper's Section 7, the *domain elements* of an instance may be
arbitrary terms — including variables (the proof of Observation 31 works with
"instances whose constants are variables") and Skolem function terms created
by the chase.  The active domain is simply the set of all terms occurring in
the facts.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .atoms import Atom
from .signature import Predicate, Signature
from .terms import Term


class Instance:
    """A mutable, indexed set of atoms.

    Mutation is add-mostly (the chase only ever adds atoms); removal is
    supported for workload construction and subset experiments.

    The content digest (:func:`repro.storage.base.instance_digest`) is
    cached in ``_digest`` until the content changes: only an ``add`` or
    ``discard`` that actually changes the fact set clears it, and
    ``copy()`` (hence ``union``) carries it over.  Like every other
    mutation, that bookkeeping is not thread-safe: an instance other
    threads read must be mutated only under a lock the callers share.
    """

    __slots__ = (
        "_atoms", "_by_pred", "_by_pos", "_by_term", "_live_preds", "_digest"
    )

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._atoms: set[Atom] = set()
        self._by_pred: dict[Predicate, set[Atom]] = {}
        self._by_pos: dict[tuple[Predicate, int, Term], set[Atom]] = {}
        self._by_term: dict[Term, set[Atom]] = {}
        self._live_preds: set[Predicate] = set()
        self._digest: "str | None" = None
        for item in atoms:
            self.add(item)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, item: Atom) -> bool:
        """Add an atom; return ``True`` when it was not present before."""
        if item in self._atoms:
            return False
        self._atoms.add(item)
        self._digest = None
        self._by_pred.setdefault(item.predicate, set()).add(item)
        self._live_preds.add(item.predicate)
        for position, term in enumerate(item.args):
            self._by_pos.setdefault((item.predicate, position, term), set()).add(item)
            self._by_term.setdefault(term, set()).add(item)
        return True

    def update(self, items: Iterable[Atom]) -> int:
        """Add many atoms; return how many were new."""
        return sum(1 for item in items if self.add(item))

    def discard(self, item: Atom) -> bool:
        """Remove an atom if present; return ``True`` when it was removed."""
        if item not in self._atoms:
            return False
        self._atoms.discard(item)
        self._digest = None
        bucket = self._by_pred[item.predicate]
        bucket.discard(item)
        if not bucket:
            self._live_preds.discard(item.predicate)
        for position, term in enumerate(item.args):
            self._by_pos[(item.predicate, position, term)].discard(item)
            bucket = self._by_term.get(term)
            if bucket is not None:
                bucket.discard(item)
                if not bucket:
                    del self._by_term[term]
        return True

    # ------------------------------------------------------------------
    # Queries on the structure
    # ------------------------------------------------------------------
    def __contains__(self, item: Atom) -> bool:
        return item in self._atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __bool__(self) -> bool:
        return bool(self._atoms)

    def domain(self) -> set[Term]:
        """The active domain: every term occurring in some fact."""
        return set(self._by_term)

    def domain_size(self) -> int:
        return len(self._by_term)

    def predicates(self) -> set[Predicate]:
        return set(self._live_preds)

    def predicates_with_facts(self) -> set[Predicate]:
        """The live predicate set, served without a copy.

        Maintained incrementally by ``add``/``discard``; the chase
        planner's relevance check consults it once per rule per round, so
        it must be O(1).  Callers must treat the returned set as
        read-only.
        """
        return self._live_preds

    def signature(self) -> Signature:
        return Signature(self.predicates())

    def with_predicate(self, predicate: Predicate) -> set[Atom]:
        """All facts over ``predicate`` (a set the caller must not mutate)."""
        return self._by_pred.get(predicate, set())

    def with_term_at(self, predicate: Predicate, position: int, term: Term) -> set[Atom]:
        """All facts over ``predicate`` with ``term`` at ``position``."""
        return self._by_pos.get((predicate, position, term), set())

    def containing(self, term: Term) -> set[Atom]:
        """All facts mentioning ``term`` at any position.

        Served from the per-term index — O(result), not a scan of the
        ``(predicate, position, term)`` buckets.  Returns a fresh set the
        caller may mutate.
        """
        return set(self._by_term.get(term, ()))

    def candidate_count(self, predicate: Predicate, position: int, term: Term) -> int:
        """Size of the ``(predicate, position, term)`` index bucket."""
        return len(self._by_pos.get((predicate, position, term), ()))

    # ------------------------------------------------------------------
    # Set-like operations
    # ------------------------------------------------------------------
    def copy(self) -> "Instance":
        """A fast structural copy: index dicts rebuilt by copying buckets.

        Re-running ``add`` per atom would re-derive every index entry;
        copying the three index dicts (bucket sets shallow-copied — atoms
        are immutable) makes chase start-up O(index size) with tiny
        constants instead.  The cached content digest carries over: the
        clone holds the same facts.
        """
        clone = Instance.__new__(Instance)
        clone._atoms = set(self._atoms)
        clone._by_pred = {key: set(value) for key, value in self._by_pred.items()}
        clone._by_pos = {key: set(value) for key, value in self._by_pos.items()}
        clone._by_term = {key: set(value) for key, value in self._by_term.items()}
        clone._live_preds = set(self._live_preds)
        clone._digest = self._digest
        return clone

    def union(self, other: "Instance | Iterable[Atom]") -> "Instance":
        result = self.copy()
        result.update(other)
        return result

    def issubset(self, other: "Instance") -> bool:
        return all(item in other for item in self._atoms)

    def atoms(self) -> frozenset[Atom]:
        """A frozen snapshot of the facts."""
        return frozenset(self._atoms)

    def restrict_to_terms(self, allowed: set[Term]) -> "Instance":
        """The induced substructure on ``allowed``.

        Keeps exactly the facts whose terms all belong to ``allowed`` — the
        construction behind the structures ``M_F`` of Definition 36 ("ban"
        the other terms and drop every atom that mentions a banned one).
        """
        kept = (item for item in self._atoms if all(t in allowed for t in item.args))
        return Instance(kept)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._atoms == other._atoms

    def __repr__(self) -> str:
        shown = sorted(repr(item) for item in self._atoms)
        if len(shown) > 12:
            head = ", ".join(shown[:12])
            return f"Instance({{{head}, ... {len(shown)} facts}})"
        return f"Instance({{{', '.join(shown)}}})"


def subsets_of_size_at_most(instance: Instance, bound: int) -> Iterator[Instance]:
    """Enumerate all sub-instances with at most ``bound`` facts.

    Used by the locality checkers (Definition 30).  The enumeration is
    exponential in ``bound``; callers keep ``bound`` small (it plays the role
    of the locality constant ``l_T``).
    """
    from itertools import combinations

    facts = sorted(instance, key=repr)
    for size in range(1, min(bound, len(facts)) + 1):
        for chosen in combinations(facts, size):
            yield Instance(chosen)
