"""First-order terms: variables, constants and (Skolem) function terms.

Terms are immutable and hashable so they can be used as dictionary keys, set
members and members of the active domain of an :class:`~repro.logic.instance.
Instance`.  The chase engine (see :mod:`repro.chase.engine`) creates
:class:`FunctionTerm` values with the Skolem naming convention of the paper
(Definition 4); because equality of function terms is structural, chases of
sub-instances are *literal* subsets of chases of larger instances
(Observation 8), which the locality machinery depends on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union


class Term:
    """Abstract base class for all terms."""

    __slots__ = ()

    def is_ground(self) -> bool:
        """Return ``True`` when no :class:`Variable` occurs in the term."""
        raise NotImplementedError

    def variables(self) -> Iterator["Variable"]:
        """Yield every variable occurring in the term (with repetition)."""
        raise NotImplementedError

    def depth(self) -> int:
        """Function-symbol nesting depth: 0 for variables and constants."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Variable(Term):
    """A first-order variable, identified by its name.

    The hash is computed once at construction: terms live in sets and
    index-dict keys throughout the chase, where re-hashing on every probe
    dominated profiles of the larger workloads.
    """

    name: str
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A string tag, not the class: a class hashes by its id, which
        # moves with each process's memory layout, so every set and dict
        # order built from terms would differ between runs even under a
        # fixed PYTHONHASHSEED.
        object.__setattr__(self, "_hash", hash(("v", self.name)))

    def __hash__(self) -> int:
        return self._hash

    def is_ground(self) -> bool:
        return False

    def variables(self) -> Iterator["Variable"]:
        yield self

    def depth(self) -> int:
        return 0

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Constant(Term):
    """A constant (a named element of the active domain)."""

    name: str
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("c", self.name)))

    def __hash__(self) -> int:
        return self._hash

    def is_ground(self) -> bool:
        return True

    def variables(self) -> Iterator[Variable]:
        return iter(())

    def depth(self) -> int:
        return 0

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class FunctionTerm(Term):
    """A function term ``f(t1, ..., tn)``.

    The chase uses these for Skolem terms: ``functor`` encodes the Skolem
    functor ``f_i^tau`` of Definition 4 and ``args`` holds the images of the
    frontier variables.  Two function terms are equal iff their functors and
    argument tuples are equal, which realizes the "literal" Skolem naming the
    paper relies on.
    """

    functor: str
    args: tuple[Term, ...]
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Child hashes are already cached, so this is O(arity), not a
        # re-walk of the whole Skolem tree — deep chase terms made the
        # recursive dataclass hash the hottest frame on cyclic workloads.
        object.__setattr__(self, "_hash", hash(("f", self.functor, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def is_ground(self) -> bool:
        return all(arg.is_ground() for arg in self.args)

    def variables(self) -> Iterator[Variable]:
        for arg in self.args:
            yield from arg.variables()

    def depth(self) -> int:
        if not self.args:
            return 1
        return 1 + max(arg.depth() for arg in self.args)

    def __repr__(self) -> str:
        if not self.args:
            return f"{self.functor}()"
        inner = ",".join(repr(arg) for arg in self.args)
        return f"{self.functor}({inner})"


Substitution = Mapping[Variable, Term]
MutableSubstitution = dict[Variable, Term]


def apply_substitution(term: Term, theta: Substitution) -> Term:
    """Apply ``theta`` to ``term``, rebuilding function terms as needed."""
    if isinstance(term, Variable):
        return theta.get(term, term)
    if isinstance(term, FunctionTerm):
        new_args = tuple(apply_substitution(arg, theta) for arg in term.args)
        if new_args == term.args:
            return term
        return FunctionTerm(term.functor, new_args)
    return term


def compose(first: Substitution, second: Substitution) -> MutableSubstitution:
    """Return the substitution equivalent to applying ``first`` then ``second``.

    For every variable ``v``: ``compose(f, s)[v] == s(f(v))``.  Variables
    bound only by ``second`` are included as well.
    """
    result: MutableSubstitution = {
        var: apply_substitution(image, second) for var, image in first.items()
    }
    for var, image in second.items():
        result.setdefault(var, image)
    return result


class FreshVariables:
    """A supply of fresh variables, used to rename rules and queries apart.

    The produced names start with an underscore so they can never collide
    with variables produced by :mod:`repro.logic.parser` (which rejects
    leading underscores in user input).
    """

    def __init__(self, prefix: str = "_v") -> None:
        self._prefix = prefix
        self._counter = itertools.count()

    def fresh(self) -> Variable:
        """Return a variable never produced by this supply before."""
        return Variable(f"{self._prefix}{next(self._counter)}")

    def fresh_like(self, var: Variable) -> Variable:
        """Return a fresh variable whose name hints at ``var``'s name."""
        return Variable(f"{self._prefix}{next(self._counter)}_{var.name}")


def variables_of(terms: Iterable[Term]) -> set[Variable]:
    """The set of variables occurring in any of ``terms``."""
    found: set[Variable] = set()
    for term in terms:
        found.update(term.variables())
    return found


TermLike = Union[Term, str]


def as_term(value: TermLike) -> Term:
    """Coerce a convenience value to a term.

    Strings become constants; terms pass through.  This keeps example and
    test code readable (``fact("E", "a", "b")``) without weakening the typed
    core API.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        return Constant(value)
    raise TypeError(f"cannot interpret {value!r} as a term")
