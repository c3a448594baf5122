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
  starting from the delta-pinned atom) once per chase.  The shapes the
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

from dataclasses import dataclass

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
from ..logic.terms import Term, Variable
from ..logic.tgd import TGD


@dataclass(frozen=True)
class RulePlan:
    """Loop-invariant match structure for one rule, built once per chase.

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
