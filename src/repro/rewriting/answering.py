"""End-to-end certain-answer computation: rewrite vs materialize.

The whole point of the BDD/FUS property (Section 1) is that querying the
elusive ``Ch(T, D)`` can be replaced by querying ``D`` with a rewritten
UCQ.  This module implements both strategies so the crossover experiment
(E9) can compare them:

* **rewrite-then-evaluate** — pay once per query shape, independent of the
  database;
* **materialize-then-evaluate** — pay once per database (chase to a
  fixpoint or a safe depth), then answer every query cheaply.

A third spelling of the first strategy pushes the evaluation into SQLite:
:func:`answer_by_rewriting_sql` compiles the rewriting's disjuncts to
SELECT-joins (:mod:`repro.storage.sqlcompile`) and lets the database's
join engine answer them — the literal reading of the BDD property, where
"evaluate the UCQ over ``D``" means handing SQL to the store holding
``D``.  :func:`answer` is the backend switch over all of this.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    answers = evaluate_ucq(result.ucq, instance)
    if result.always_true and query.is_boolean() and len(instance):
        answers.add(())
    return answers


def answer_by_rewriting_sql(
    theory: Theory,
    query: ConjunctiveQuery,
    store,
    budget: RewritingBudget | None = None,
    prepared: RewritingResult | None = None,
) -> set[tuple[Term, ...]]:
    """Certain answers via UCQ rewriting, evaluated *inside* SQLite.

    ``store`` is a :class:`repro.storage.sqlite.SQLiteStore` already
    holding the database.  The rewriting's disjuncts are compiled to one
    UNION of SELECT-joins and executed by SQLite's join engine — the
    answer set is exactly :func:`answer_by_rewriting`'s (pinned by
    ``tests/test_storage_equivalence.py``).  Pass ``prepared`` to
    amortize the rewriting; :class:`repro.rewriting.session.OMQASession`
    additionally caches the compiled SQL per query shape.
    """
    from ..storage.sqlcompile import evaluate_ucq_sql

    result = prepared if prepared is not None else rewrite(theory, query, budget)
    if not result.complete:
        raise RuntimeError("rewriting incomplete; cannot answer soundly")
    answers = evaluate_ucq_sql(result.ucq, store)
    if result.always_true and query.is_boolean() and len(store):
        answers.add(())
    return answers


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


def certain_answers(
    theory: Theory,
    query: ConjunctiveQuery,
    instance: Instance,
    budget: RewritingBudget | None = None,
    chase_budget: ChaseBudget | None = None,
    cancel: "CancellationToken | None" = None,
) -> set[tuple[Term, ...]]:
    """Certain answers by the safest available route.

    Tries rewriting first; when saturation does not complete, falls back to
    a terminating chase (limited by ``chase_budget``).  Raises when neither
    route is conclusive.  For repeated queries over the same theory prefer
    :class:`repro.rewriting.session.OMQASession`, which caches both routes.
    """
    result = rewrite(theory, query, budget)
    if result.complete:
        return answer_by_rewriting(theory, query, instance, prepared=result)
    return answer_by_materialization(
        theory, query, instance, budget=chase_budget, cancel=cancel
    )


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
    """Certain answers with a storage-backend switch.

    ``backend`` resolves through the one registry,
    :func:`repro.storage.resolve_backend` — ``"memory"``, ``"columnar"``
    or ``"sqlite"``, uniformly with ``OMQASession`` and the CLI.  Every
    backend returns the same set: they differ in *where* the joins run,
    never in the answers, and all three cut a non-terminating fallback
    chase at the same :data:`DEFAULT_ANSWER_CHASE_BUDGET`.

    ``backend="memory"`` is :func:`certain_answers` unchanged.

    ``backend="columnar"`` loads ``instance`` into an in-RAM
    :class:`~repro.storage.columnar.ColumnarStore` and evaluates the UCQ
    rewriting as hash joins over interned term ids
    (:func:`~repro.chase.columnar_kernel.evaluate_ucq_columnar`); when
    the rewriting does not saturate, it materializes with the columnar
    chase kernel and evaluates over the result.

    ``backend="sqlite"`` loads ``instance`` into a
    :class:`~repro.storage.sqlite.SQLiteStore` (at ``db_path``, or a
    private in-memory database) and evaluates the UCQ rewriting there;
    when the rewriting does not saturate, it falls back to the
    store-backed chase (:func:`~repro.storage.chasestore.chase_into_store`)
    and evaluates the query over the materialized store, answers
    restricted to the base domain as usual.

    ``cancel`` threads a :class:`~repro.chase.engine.CancellationToken`
    into whichever fallback chase the backend runs (rewriting-route
    evaluation is not interruptible — it is one query, not a fixpoint);
    a fired token surfaces as the chase's usual interruption semantics.

    A ``db_path`` pointing at a database that already holds facts is
    accepted only when those facts are content-identical to ``instance``
    (the digest check mirrors ``OMQASession``'s store reuse); anything
    else raises :class:`~repro.storage.chasestore.StoreChaseError` —
    evaluating the rewriting over a mixture of stored and passed facts
    would return unsound answers.
    """
    from ..storage.base import resolve_backend

    resolved = resolve_backend(backend, db_path)
    if resolved.name == "memory":
        return certain_answers(
            theory, query, instance, budget, chase_budget, cancel=cancel
        )
    chase_budget = chase_budget or DEFAULT_ANSWER_CHASE_BUDGET
    if resolved.name == "columnar":
        from ..chase.columnar_kernel import evaluate_ucq_columnar
        from ..storage.columnar import ColumnarStore

        result = rewrite(theory, query, budget)
        if result.complete:
            with ColumnarStore(instance) as store:
                answers = evaluate_ucq_columnar(result.ucq, store)
            if result.always_true and query.is_boolean() and len(instance):
                answers.add(())
            return answers
        materialized = chase(
            theory, instance, budget=chase_budget, backend="columnar",
            cancel=cancel,
        )
        if not materialized.terminated:
            raise RuntimeError(
                "columnar chase did not terminate within budget and the "
                "rewriting is incomplete; no sound route to certain answers"
            )
        with ColumnarStore(materialized.instance) as store:
            answers = evaluate_ucq_columnar(query, store)
        return _base_restricted(answers, instance)
    from ..storage.base import instance_digest
    from ..storage.chasestore import StoreChaseError, chase_into_store
    from ..storage.sqlcompile import evaluate_ucq_sql
    from ..storage.sqlite import SQLiteStore

    result = rewrite(theory, query, budget)
    with SQLiteStore(resolved.path if resolved.path is not None else ":memory:") as store:
        if result.complete:
            if len(store):
                if store.digest() != instance_digest(instance):
                    raise StoreChaseError(
                        f"store at {store.path!r} already holds facts that "
                        "differ from `instance`; refusing to evaluate the "
                        "rewriting over the mixture (use a fresh db_path)"
                    )
            else:
                store.add_many(instance)
            return answer_by_rewriting_sql(theory, query, store, prepared=result)
        outcome = chase_into_store(
            theory, instance, store, budget=chase_budget, cancel=cancel
        )
        if not outcome.terminated:
            raise RuntimeError(
                "store chase did not terminate within budget and the "
                "rewriting is incomplete; no sound route to certain answers"
            )
        return _base_restricted(evaluate_ucq_sql(query, store), instance)


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
