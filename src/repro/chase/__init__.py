"""The chase: semi-oblivious Skolem engine, variants, provenance, termination.

Resource limits live on :class:`ChaseBudget`; the old ``max_rounds=`` /
``max_atoms=`` kwargs of :func:`chase` raise ``TypeError`` since 1.2.
A typical bounded run::

    from repro.chase import ChaseBudget, chase
    from repro.workloads.generators import edge_cycle
    from repro.workloads.theories import example42_tc

    result = chase(
        example42_tc(), edge_cycle(4), budget=ChaseBudget(max_rounds=10)
    )
    assert not result.terminated  # T_c never fixpoints; the budget returns

``ChaseBudget(on_exceeded="return")`` (the default) stops cleanly at the
budget; ``on_exceeded="raise"`` turns the same limit into a
:class:`ChaseBudgetExceeded`.
"""

from .explain import DerivationNode, derivation_tree, explain, explain_answer
from .engine import (
    CancellationToken,
    ChaseBudget,
    ChaseBudgetExceeded,
    ChaseCancelled,
    ChaseResult,
    Derivation,
    chase,
    chase_to_fixpoint,
    resume,
)
from .provenance import (
    ancestor_support,
    ancestors,
    birth_atom,
    connected_parents,
    derivation_depths,
    frontier_of,
    invented_terms,
    minimal_support,
    parents,
    possible_ancestors,
    possible_parent_sets,
)
from .skolem import SkolemizedRule, skolemize
from .termination import (
    CoreTerminationWitness,
    all_instances_termination,
    core_termination,
    is_model,
    minimize_model,
    violations,
)
from .variants import VariantResult, oblivious_chase, restricted_chase

__all__ = [
    "CancellationToken",
    "ChaseBudget",
    "ChaseBudgetExceeded",
    "ChaseCancelled",
    "ChaseResult",
    "CoreTerminationWitness",
    "Derivation",
    "DerivationNode",
    "SkolemizedRule",
    "VariantResult",
    "all_instances_termination",
    "ancestor_support",
    "ancestors",
    "birth_atom",
    "chase",
    "chase_to_fixpoint",
    "resume",
    "connected_parents",
    "core_termination",
    "derivation_depths",
    "derivation_tree",
    "explain",
    "explain_answer",
    "frontier_of",
    "invented_terms",
    "is_model",
    "minimal_support",
    "minimize_model",
    "oblivious_chase",
    "parents",
    "possible_ancestors",
    "possible_parent_sets",
    "restricted_chase",
    "skolemize",
    "violations",
]
