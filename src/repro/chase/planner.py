"""Static join planning for the chase hot path.

Every chase round asks, for every rule, "which homomorphisms of the body
touch the latest delta?".  The answer is a backtracking join
(:mod:`repro.logic.homomorphism`), and two of its costs are loop-invariant
per rule:

* **Atom ordering.**  The dynamic fewest-candidates selection re-scores
  every remaining body atom at every search node — O(|body|) bucket
  probes per node, quadratic along a match-tree path.  Rule bodies do not
  change between rounds, so the planner precomputes one
  variable-connectivity order per rule (and one per semi-naive pivot,
  starting from the delta-pinned atom) once per theory.  The shapes the
  rewritability literature leans on — guarded, sticky, loop-restricted
  bodies — are exactly the ones where such a static order is as good as
  the dynamic choice; orders that would expand an *unbound prefix* are
  rejected at plan time and those searches keep the dynamic fallback.
* **Relevance.**  A rule whose body predicates are disjoint from the
  delta's predicates (and which cannot fire through a universal head
  variable on a new domain term) has no semi-naive match this round; the
  planner's relevance check skips the join entirely.

Both are pure optimizations: the set of matches — and hence, by Skolem
determinism, the chase result atom-for-atom — is unchanged.  The
``plan.*`` telemetry counters make the savings observable:

``plan.rules_skipped``
    rules dropped by the per-round relevance check;
``plan.pivots_skipped``
    semi-naive pivot searches skipped because the pivot's predicate has
    no fact in the delta (counted in the search layer);
``plan.plans_reused``
    searches driven by a precomputed order instead of dynamic selection;
``plan.nodes_saved``
    a conservative estimate (one search root per skipped pivot or rule)
    of backtracking nodes never expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

# How many work items (matches in the sequential/columnar executors,
# inserted rows in the store chase) an inner loop processes between
# deadline/cancellation checks.  A power of two: the executors test
# ``counter & (CONTROL_CHECK_STRIDE - 1)`` so the disabled-path cost
# stays one branch per item.  256 keeps the in-round response latency
# well under a millisecond on every bench workload while making the
# check cost unmeasurable (pinned by the ``fault_tolerance`` bench-guard
# scenario).
CONTROL_CHECK_STRIDE = 256

from ..logic.homomorphism import JoinPlan, plan_join
from ..logic.signature import Predicate
from ..logic.terms import FunctionTerm, Term, Variable
from ..logic.tgd import TGD
from .skolem import SkolemizedRule


@dataclass(frozen=True)
class RulePlan:
    """Loop-invariant match structure for one rule, built once per theory.

    ``join`` carries the precomputed atom orders handed to the
    homomorphism search; ``body_predicates`` feeds the relevance check;
    ``universal`` is the rule's universal head variables in canonical
    order (they range over the active domain and make the rule relevant
    whenever the domain grew).
    """

    join: JoinPlan
    body_predicates: frozenset[Predicate]
    universal: tuple[Variable, ...]
    has_body: bool

    def relevant(
        self, delta_predicates: set[Predicate], delta_terms: set[Term] | None
    ) -> bool:
        """Can this rule produce any semi-naive match this round?

        Body rules need a body predicate among the delta's predicates;
        rules with universal head variables additionally fire when the
        round invented new domain terms.  Rules with neither (e.g. the
        bodyless ``true -> exists x. R(x,x)`` loop rule after round one)
        are never relevant under semi-naive evaluation.
        """
        if self.has_body and not self.body_predicates.isdisjoint(delta_predicates):
            return True
        return bool(self.universal) and bool(delta_terms)

    @property
    def search_count(self) -> int:
        """How many pivot searches a non-skipped round would have run."""
        return max(1, len(self.join.pivot_orders))


def plan_rule(rule: TGD, body_patterns: tuple) -> RulePlan:
    """Precompute the :class:`RulePlan` for a rule's compiled body."""
    return RulePlan(
        join=plan_join(body_patterns),
        body_predicates=frozenset(item.predicate for item in rule.body),
        universal=tuple(sorted(rule.universal_head_variables(), key=lambda v: v.name)),
        has_body=bool(rule.body),
    )


@dataclass(frozen=True)
class RuleProgram:
    """One rule lowered to id slots, run by the columnar kernel and the
    store chase; built once per ``Theory`` and holding no store state.

    ``variables`` numbers the rule's variables: the body's in
    first-occurrence order, then ``plan.universal``.  ``patterns[i]`` is
    ``(predicate, slots)`` with each slot an ``(is_var, value)`` pair;
    ``universal`` holds the universal variables' indexes; ``heads`` carry
    ``("v", index)``, ``("c", value)`` and ``("f", functor, indexes)``
    slots, the last interning a Skolem term over its frontier's ids.  A
    constant's ``value`` is the term itself until :meth:`bind` replaces
    it with a store's id.  Join orders are the planner's, with
    identity/pivot-first fallbacks where the plan has none (``*_planned``
    keep the ``plan.plans_reused`` accounting faithful).
    """

    variables: tuple[Variable, ...]
    patterns: tuple
    universal: tuple[int, ...]
    heads: tuple
    sigma_order: tuple[tuple[Variable, int], ...]
    base_order: tuple[int, ...]
    base_planned: bool
    pivot_orders: tuple[tuple[int, ...], ...]
    pivot_planned: tuple[bool, ...]
    bound: bool

    def bind(self, intern: Callable[[Term], int]) -> "RuleProgram":
        """This program with each constant replaced by ``intern(term)``
        (itself when there is none); every run binds for its own store."""
        if self.bound:
            return self
        patterns = tuple(
            (predicate, tuple(s if s[0] else (False, intern(s[1])) for s in slots))
            for predicate, slots in self.patterns
        )
        heads = tuple(
            (predicate, tuple(("c", intern(s[1])) if s[0] == "c" else s for s in slots))
            for predicate, slots in self.heads
        )
        return replace(self, patterns=patterns, heads=heads, bound=True)

    def bind_head(
        self,
        slots: tuple,
        ids: "tuple[int, ...]",
        function_parts: "Callable[[int], tuple[str, tuple[int, ...]] | None]",
    ) -> "list | None":
        """The sigma slots fixed by matching one head's slots to a fact row.

        The inverse of :meth:`head_rows`, run by the re-derive probes of
        the columnar kernel and the store chase.  A ``"v"`` slot binds
        its index (a repeated variable must agree), a ``"c"`` slot must
        equal the fact's id, and an ``"f"`` slot must hold a Skolem term
        of its functor, whose child ids (``function_parts``) bind the
        slot's indexes.  Returns one entry per variable, ``None`` where
        unbound, or ``None`` when the fact does not match the head.
        """
        binding: list = [None] * len(self.variables)
        for slot, term_id in zip(slots, ids):
            kind = slot[0]
            if kind == "v":
                bound = binding[slot[1]]
                if bound is None:
                    binding[slot[1]] = term_id
                elif bound != term_id:
                    return None
            elif kind == "c":
                if slot[1] != term_id:
                    return None
            else:
                parts = function_parts(term_id)
                if parts is None or parts[0] != slot[1]:
                    return None
                for index, child in zip(slot[2], parts[1]):
                    bound = binding[index]
                    if bound is None:
                        binding[index] = child
                    elif bound != child:
                        return None
        return binding

    def head_rows(
        self, row, intern_function: Callable[[str, tuple], int]
    ) -> "list[tuple]":
        """``(predicate, ids)`` of every head atom for one sigma row."""
        out = []
        for predicate, slots in self.heads:
            ids = []
            for slot in slots:
                kind = slot[0]
                if kind == "v":
                    ids.append(row[slot[1]])
                elif kind == "c":
                    ids.append(slot[1])
                else:
                    ids.append(intern_function(slot[1], tuple(row[i] for i in slot[2])))
            out.append((predicate, tuple(ids)))
        return out


def lower_rule(skolemized: SkolemizedRule, plan: RulePlan) -> RuleProgram:
    """Lower a skolemized rule and its plan to a :class:`RuleProgram`.

    Bodies hold variables and ground terms only (the pattern compiler
    rejects anything else); heads after skolemization hold body or
    universal variables, ground terms and Skolem terms over the frontier.
    """
    index_of: dict[Variable, int] = {}
    constants = False

    def slot(term: Term) -> tuple:
        nonlocal constants
        if isinstance(term, Variable):
            return (True, index_of.setdefault(term, len(index_of)))
        constants = True
        return (False, term)

    patterns = tuple(
        (item.predicate, tuple(slot(term) for term in item.args))
        for item in skolemized.rule.body
    )
    universal = tuple(slot(var)[1] for var in plan.universal)
    heads = []
    for item in skolemized.head:
        head_slots = []
        for term in item.args:
            if isinstance(term, FunctionTerm) and not term.is_ground():
                head_slots.append(
                    ("f", term.functor, tuple(index_of[child] for child in term.args))
                )
            else:
                is_var, value = slot(term)
                head_slots.append(("v" if is_var else "c", value))
        heads.append((item.predicate, tuple(head_slots)))
    count = len(patterns)
    join = plan.join
    pivot_orders = tuple(
        join.pivot_orders[pivot]
        if join.pivot_orders[pivot] is not None
        else (pivot,) + tuple(i for i in range(count) if i != pivot)
        for pivot in range(count)
    )
    return RuleProgram(
        variables=tuple(index_of),
        patterns=patterns,
        universal=universal,
        heads=tuple(heads),
        sigma_order=tuple(sorted(index_of.items(), key=lambda kv: kv[0].name)),
        base_order=(
            join.base_order if join.base_order is not None else tuple(range(count))
        ),
        base_planned=join.base_order is not None,
        pivot_orders=pivot_orders,
        pivot_planned=tuple(order is not None for order in join.pivot_orders),
        bound=not constants,
    )
