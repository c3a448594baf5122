"""Property-based equivalence: the SQLite path == the in-memory path.

Linear theories are BDD (Section 1), so certain answers computed by
evaluating the UCQ rewriting *inside SQLite* must coincide exactly with
answers from a materialized chase in RAM.  Randomized linear worlds
(same generators as ``test_fuzz_linear.py``) drive four pinned
equalities per seed:

* ``answer(..., backend="sqlite")`` == ``answer_by_materialization``
  (plus a query constant over a cycle, whose one answer is known);
* ``OMQASession.answer(strategy="sql")`` == ``strategy="rewrite"``;
* SQL evaluation of the rewriting == in-memory evaluation of the same
  rewriting over the same base facts (plus the Theorem 5B process
  rewriting of ``phi_r_n(2)``, whose answers are known exactly);
* the store's content digest == the instance's digest (round-trip
  identity through the term dictionary and back).

Boolean probes whose rewriting a bodyless rule consumes whole pin every
backend and session strategy to the materialization route.
"""

from __future__ import annotations

import random

import pytest

from repro.frontier.process import run_process
from repro.frontier.td import phi_r_n
from repro.logic import parse_query, parse_theory
from repro.logic.containment import evaluate_ucq
from repro.logic.terms import Constant
from repro.rewriting import (
    OMQASession,
    RewritingBudget,
    answer,
    answer_by_materialization,
    rewrite,
)
from repro.rewriting.bdd import depth_bound_from_rewriting
from repro.storage import SQLiteStore, content_digest, evaluate_ucq_sql
from repro.workloads import edge_cycle, green_path
from tests.test_fuzz_linear import (
    random_instance,
    random_linear_theory,
    random_query,
)

BUDGET = RewritingBudget(max_kept=300, max_steps=20_000)


def _world(seed: int):
    rng = random.Random(1000 + seed)
    return random_linear_theory(rng), random_instance(rng), random_query(rng)


def _constant_on_cycle():
    """A query constant over an E-cycle whose chase never terminates.

    ``a0``'s only ``R``-successor is ``a1``, so that is the one answer.
    """
    theory = parse_theory(
        "E(x, y) -> exists z. E(y, z)\nE(x, y) -> R(x, y)", name="linear-cycle"
    )
    query = parse_query("q(u) := R('a0', u)")
    return theory, edge_cycle(12), query, {(Constant("a1"),)}


@pytest.mark.parametrize("case", [*range(6), "constant-on-cycle"])
def test_sqlite_backend_matches_materialization(case):
    if case == "constant-on-cycle":
        theory, instance, query, expected = _constant_on_cycle()
    else:
        theory, instance, query = _world(case)
        expected = None
    prepared = rewrite(theory, query, BUDGET)
    if not prepared.complete:
        pytest.skip("rewriting truncated under the fuzz budget")
    # The certified depth bound keeps the materialization side exact even
    # when the linear theory's chase does not terminate (still BDD).
    depth = depth_bound_from_rewriting(theory, query, BUDGET)
    by_chase = answer_by_materialization(theory, query, instance, depth=depth)
    by_sqlite = answer(theory, query, instance, backend="sqlite")
    assert by_sqlite == by_chase, f"case={case}\n{theory}\n{instance}\n{query}"
    if expected is not None:
        assert by_sqlite == expected


@pytest.mark.parametrize("seed", range(6))
def test_session_sql_strategy_matches_rewrite(seed):
    theory, instance, query = _world(100 + seed)
    session = OMQASession(theory, rewriting_budget=BUDGET)
    try:
        try:
            by_rewrite = session.answer(query, instance, strategy="rewrite")
        except RuntimeError:
            pytest.skip("rewriting truncated under the fuzz budget")
        by_sql = session.answer(query, instance, strategy="sql")
        assert by_sql == by_rewrite, f"seed={seed}\n{theory}\n{instance}\n{query}"
        # Second ask hits the compiled-SQL cache and must not drift.
        assert session.answer(query, instance, strategy="sql") == by_sql
        assert session.cache_info()["sql"]["hits"] >= 1
    finally:
        session.close()


def _process_case():
    """The Theorem 5B process rewriting of ``phi_r_n(2)`` over ``green_path(8)``.

    Its answers are the pairs of path nodes ``2**2`` green edges apart.
    """
    expected = {(Constant(f"a{i}"), Constant(f"a{i + 4}")) for i in range(5)}
    return run_process(phi_r_n(2)).rewriting(), green_path(8), expected


@pytest.mark.parametrize("case", [*range(6), "e1-process"])
def test_sql_ucq_evaluation_matches_memory(case):
    if case == "e1-process":
        ucq, instance, expected = _process_case()
    else:
        theory, instance, query = _world(200 + case)
        prepared = rewrite(theory, query, BUDGET)
        if not prepared.complete:
            pytest.skip("rewriting truncated under the fuzz budget")
        ucq, expected = prepared.ucq, None
    in_memory = evaluate_ucq(ucq, instance)
    with SQLiteStore(":memory:") as store:
        store.add_many(instance)
        assert store.digest() == content_digest(instance)
        in_sql = evaluate_ucq_sql(ucq, store)
    assert in_sql == in_memory, f"case={case}\n{ucq}\n{instance}"
    if expected is not None:
        assert in_memory == expected


def test_answer_sqlite_guards_prepopulated_db(tmp_path):
    """A db holding facts other than ``instance`` must be refused.

    Evaluating the compiled rewriting over the union of stored and
    passed facts would return a superset of the certain answers; an
    identical (digest-equal) db is reused as-is.
    """
    from repro.logic import parse_instance, parse_query, parse_theory
    from repro.storage import StoreChaseError

    theory = parse_theory(
        "Human(y) -> exists z. Mother(y, z)\nMother(x, y) -> Human(y)",
        name="guard",
    )
    query = parse_query("q(x) := exists y. Mother(x, y)")
    instance = parse_instance("Human(abel)")
    db = str(tmp_path / "answers.db")
    first = answer(theory, query, instance, backend="sqlite", db_path=db)
    # Re-asking over the now-populated db with the same instance reuses it.
    assert answer(theory, query, instance, backend="sqlite", db_path=db) == first
    with pytest.raises(StoreChaseError):
        answer(
            theory,
            query,
            parse_instance("Human(cain)"),
            backend="sqlite",
            db_path=db,
        )


# (theory, instance, boolean query) whose rewriting a bodyless rule
# consumes whole, over an empty active domain: the finishing step must
# tell a rule that fires on the empty instance from one that needs a term.
BOOLEAN_PROBES = [
    ("true -> exists x. R(x)", "", "q() := exists x. R(x)"),
    ("true -> exists z. R(x, z)", "P().", "q() := exists x, y. R(x, y)"),
    ("true -> exists z. R(x, z)", "", "q() := exists x, y. R(x, y)"),
]


@pytest.mark.parametrize("theory, instance, query", BOOLEAN_PROBES)
def test_boolean_probes_match_materialization(theory, instance, query):
    from repro.logic import parse_instance, parse_query, parse_theory

    theory = parse_theory(theory, name="probe")
    instance = parse_instance(instance)
    query = parse_query(query)
    assert rewrite(theory, query).always_true
    expected = answer_by_materialization(theory, query, instance)
    for backend in ("memory", "columnar", "sqlite"):
        assert answer(theory, query, instance, backend=backend) == expected, backend
    session = OMQASession(theory)
    try:
        for strategy in ("auto", "columnar", "sql", "materialize"):
            got = session.answer(query, instance, strategy)
            assert got == expected, strategy
    finally:
        session.close()


@pytest.mark.parametrize("seed", range(8))
def test_digest_survives_store_round_trip(seed):
    rng = random.Random(3000 + seed)
    instance = random_instance(rng)
    with SQLiteStore(":memory:") as store:
        store.add_many(instance)
        assert store.digest() == content_digest(instance)
        assert content_digest(store.to_instance()) == content_digest(instance)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12))
def test_sqlite_backend_fuzz_slow(seed):
    """The wider sweep, mirroring test_linear_fuzz_agreement's seeds."""
    rng = random.Random(5000 + seed)
    theory = random_linear_theory(rng)
    for trial in range(3):
        instance = random_instance(rng)
        query = random_query(rng)
        prepared = rewrite(theory, query, BUDGET)
        if not prepared.complete:
            continue
        depth = depth_bound_from_rewriting(theory, query, BUDGET)
        by_chase = answer_by_materialization(theory, query, instance, depth=depth)
        by_sqlite = answer(theory, query, instance, backend="sqlite")
        assert by_sqlite == by_chase, (
            f"seed={seed} trial={trial}\n{theory}\n{instance}\n{query}"
        )
