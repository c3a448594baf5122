"""Relational signatures (schemas): predicate symbols with fixed arities.

A signature in the paper is a finite set of relation symbols.  We keep it a
lightweight value object; most of the library infers signatures from rules,
queries and instances rather than demanding one up front, but recognizers
such as :func:`repro.classes.recognizers.classify` and the binary-signature
hypothesis of Theorem 3 need the explicit notion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class Predicate:
    """A relation symbol with a fixed arity.

    The hash is cached at construction: predicates key the instance
    indexes probed on every fact insertion and candidate lookup.
    """

    name: str
    arity: int
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError(f"negative arity for predicate {self.name}")
        # A string tag, not the class, so the hash is the same in every
        # process (see ``Variable`` in ``terms.py``).
        object.__setattr__(self, "_hash", hash(("p", self.name, self.arity)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


class Signature:
    """A finite set of predicates with name-based lookup.

    Adding two predicates with the same name but different arities is
    rejected: the paper (and standard database practice) never overloads
    relation names.
    """

    def __init__(self, predicates: Iterable[Predicate] = ()) -> None:
        self._by_name: dict[str, Predicate] = {}
        for predicate in predicates:
            self.add(predicate)

    def add(self, predicate: Predicate) -> None:
        existing = self._by_name.get(predicate.name)
        if existing is not None and existing != predicate:
            raise ValueError(
                f"predicate {predicate.name} redeclared with arity "
                f"{predicate.arity}, previously {existing.arity}"
            )
        self._by_name[predicate.name] = predicate

    def __contains__(self, predicate: Predicate) -> bool:
        return self._by_name.get(predicate.name) == predicate

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def get(self, name: str) -> Predicate | None:
        """Look a predicate up by name, or ``None`` when absent."""
        return self._by_name.get(name)

    def max_arity(self) -> int:
        """The largest arity in the signature (0 for an empty signature)."""
        return max((p.arity for p in self), default=0)

    def is_binary(self) -> bool:
        """True when every predicate has arity at most 2 (Theorem 3 scope)."""
        return self.max_arity() <= 2

    def __repr__(self) -> str:
        inner = ", ".join(sorted(repr(p) for p in self))
        return f"Signature({{{inner}}})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self._by_name == other._by_name
