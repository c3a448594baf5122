"""End-to-end certain-answer computation: rewrite vs materialize.

The whole point of the BDD/FUS property (Section 1) is that querying the
elusive ``Ch(T, D)`` can be replaced by querying ``D`` with a rewritten
UCQ.  This module implements both strategies so the crossover experiment
(E9) can compare them:

* **rewrite-then-evaluate** — pay once per query shape, independent of the
  database;
* **materialize-then-evaluate** — pay once per database (chase to a
  fixpoint or a safe depth), then answer every query cheaply.

:func:`answer` picks a route and a storage backend through a one-shot
:class:`~repro.rewriting.session.OMQASession`, the one place that does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..chase.engine import CancellationToken, ChaseBudget, ChaseResult, chase
from ..logic.containment import evaluate_ucq
from ..logic.homomorphism import evaluate
from ..logic.instance import Instance
from ..logic.query import ConjunctiveQuery
from ..logic.terms import Term
from ..logic.tgd import Theory
from .bdd import depth_bound_from_rewriting
from .engine import RewritingBudget, RewritingResult, rewrite

# One fallback chase budget for every answering backend: memory, columnar
# and sqlite give up at the same point, so backends can differ in where
# the joins run but never in when a non-terminating chase is cut off.
DEFAULT_ANSWER_CHASE_BUDGET = ChaseBudget(max_rounds=100, max_atoms=500_000)


def _base_restricted(
    answers: set[tuple[Term, ...]], base: Instance
) -> set[tuple[Term, ...]]:
    domain = base.domain()
    return {
        answer for answer in answers if all(term in domain for term in answer)
    }


def answer_by_rewriting(
    theory: Theory,
    query: ConjunctiveQuery,
    instance: Instance,
    budget: RewritingBudget | None = None,
    prepared: RewritingResult | None = None,
) -> set[tuple[Term, ...]]:
    """Certain answers via UCQ rewriting (Theorem 1).

    ``prepared`` lets callers amortize the rewriting across databases (the
    realistic OMQA deployment mode and the E9 benchmark's fast path).
    """
    result = prepared if prepared is not None else rewrite(theory, query, budget)
    if not result.complete:
        raise RuntimeError("rewriting incomplete; cannot answer soundly")
    return _finish_rewriting(
        result,
        query,
        instance,
        evaluate_ucq(result.ucq, instance),
        lambda: answer_by_materialization(theory, query, instance),
    )


def _finish_rewriting(
    result: RewritingResult,
    query: ConjunctiveQuery,
    instance: Instance,
    answers: set[tuple[Term, ...]],
    materialized: Callable[[], set[tuple[Term, ...]]],
) -> set[tuple[Term, ...]]:
    """The certain answers of a complete rewriting route.

    ``answers`` is ``result``'s UCQ evaluated over ``instance`` on any
    backend; this is the one place that turns it into certain answers.
    A boolean query that some rewriting step consumed whole
    (``result.always_true``) holds wherever that step's empty-bodied rule
    fires: on every instance when the rule has no universal head variable
    (``result.always_true_on_empty``), else on every instance whose active
    domain is non-empty.  On an empty domain the rewriting cannot tell
    whether another rule creates the term such a rule needs, so
    ``materialized()`` — the chase route, which raises rather than guess
    when it reaches no fixpoint — decides.
    """
    if not (result.always_true and query.is_boolean()):
        return answers
    if result.always_true_on_empty or instance.domain():
        return {()}
    return materialized()


def answer_by_materialization(
    theory: Theory,
    query: ConjunctiveQuery,
    instance: Instance,
    depth: int | None = None,
    budget: ChaseBudget | None = None,
    prepared: ChaseResult | None = None,
    cancel: "CancellationToken | None" = None,
) -> set[tuple[Term, ...]]:
    """Certain answers via chasing.

    With ``depth`` given, chase that many rounds (sound and complete when
    ``depth >= n_query`` for a BDD theory).  Without it, chase to a
    fixpoint within ``budget`` and fail loudly otherwise.  Resource
    limits are a :class:`repro.chase.engine.ChaseBudget`; pass
    ``budget=ChaseBudget(max_rounds=..., max_atoms=...)``.  Answers are
    restricted to base-domain tuples — certain answers over labelled
    nulls are not answers.
    """
    budget = budget if budget is not None else DEFAULT_ANSWER_CHASE_BUDGET
    if prepared is not None:
        result = prepared
    else:
        if depth is not None:
            budget = ChaseBudget(
                max_rounds=depth, max_atoms=budget.max_atoms, on_exceeded=budget.on_exceeded
            )
        result = chase(theory, instance, budget=budget, cancel=cancel)
        if depth is None and not result.terminated:
            raise RuntimeError(
                "chase did not terminate within budget; pass an explicit depth "
                "certified by depth_bound_from_rewriting()"
            )
    return _base_restricted(evaluate(query, result.instance), instance)


def answer(
    theory: Theory,
    query: ConjunctiveQuery,
    instance: Instance,
    backend: str = "memory",
    db_path: "str | None" = None,
    budget: RewritingBudget | None = None,
    chase_budget: ChaseBudget | None = None,
    cancel: "CancellationToken | None" = None,
) -> set[tuple[Term, ...]]:
    """Certain answers on one storage backend: a one-shot
    :class:`~repro.rewriting.session.OMQASession`.

    ``backend`` resolves through :func:`repro.storage.resolve_backend`
    (``"memory"``, ``"columnar"`` or ``"sqlite"``) and picks the session
    strategy from :data:`repro.rewriting.session.BACKEND_STRATEGIES`, the
    table the CLI and the service use too.  The session is opened with
    ``db_path``, both budgets and ``cancel``, answers once and is closed,
    so every backend returns the same set: they differ in *where* the
    joins run, never in the answers.  When the rewriting does not
    saturate, every backend falls back to the session's one
    materialization route, cut at :data:`DEFAULT_ANSWER_CHASE_BUDGET`
    unless ``chase_budget`` says otherwise.

    ``cancel`` reaches the session's chase: a fired token raises
    :class:`~repro.chase.engine.ChaseCancelled` from the materialization
    (rewriting-route evaluation is one query, not a fixpoint, and is not
    interruptible).

    A ``db_path`` pointing at a database that already holds facts is
    accepted only when those facts are content-identical to ``instance``;
    anything else raises :class:`~repro.storage.chasestore.StoreChaseError`
    and leaves the stored facts in place — evaluating the rewriting over a
    mixture of stored and passed facts would return unsound answers.
    """
    from ..storage.base import resolve_backend
    from .session import BACKEND_STRATEGIES, OMQASession

    resolved = resolve_backend(backend, db_path)
    session = OMQASession(
        theory,
        rewriting_budget=budget,
        chase_budget=chase_budget,
        db_path=resolved.path,
        cancel=cancel,
    )
    try:
        return session.answer(query, instance, BACKEND_STRATEGIES[resolved.name])
    finally:
        session.close()


@dataclass
class AgreementReport:
    """Cross-validation of the two strategies on one input (tests use it)."""

    rewriting_answers: set[tuple[Term, ...]]
    materialization_answers: set[tuple[Term, ...]]

    @property
    def agree(self) -> bool:
        return self.rewriting_answers == self.materialization_answers


def cross_validate(
    theory: Theory,
    query: ConjunctiveQuery,
    instance: Instance,
    budget: RewritingBudget | None = None,
    max_rounds: int = 30,
) -> AgreementReport:
    """Answer both ways and report agreement.

    The materialization side uses the rewriting-certified depth bound, so
    the comparison is exact even for non-terminating (but BDD) theories.
    """
    result = rewrite(theory, query, budget)
    if not result.complete:
        raise RuntimeError("rewriting incomplete; nothing to cross-validate")
    by_rewriting = answer_by_rewriting(theory, query, instance, prepared=result)
    depth = depth_bound_from_rewriting(theory, query, budget, max_depth=max_rounds)
    if result.always_true and query.is_boolean():
        # The boolean query is entailed via empty-bodied rules at depth 1.
        depth = max(depth, 1)
    by_chase = answer_by_materialization(theory, query, instance, depth=depth)
    return AgreementReport(by_rewriting, by_chase)
