"""Three engines, one semantics for universal head variables.

A universal head variable ranges over the active domain of ``Ch_i``
(Definition 6): the ``T_d`` rules of Section 5 such as
``true -> exists z, z1. R(x, z), G(x, z1)``, or ``P(x) -> Q(x, y)``.
The object engine (``backend="memory"``), the columnar kernel and the
SQLite store chase all enumerate those assignments through
:func:`repro.chase.engine.universal_matches`, so:

* memory and columnar agree on every round, every recorded derivation
  and the ``chase.*`` counters;
* the store chase agrees with memory on every round's atoms and on the
  content digest;
* a budget stop plus a resume equals one uninterrupted run, on every
  engine;
* all of them equal the naive chase (``semi_naive=False``), which
  re-evaluates every rule over the whole domain each round — the
  reference for the semi-naive delta split they share.
"""

from __future__ import annotations

import pytest

from repro.chase import ChaseBudget, chase, resume
from repro.logic import parse_instance, parse_theory
from repro.storage import (
    SQLiteStore,
    chase_into_store,
    content_digest,
    resume_store_chase,
)
from repro.workloads import green_path, t_d

EXACT_COUNTERS = ("chase.matches", "chase.atoms_produced", "chase.dedup_hits")

# Bodyless universal, body universal and bodyless ground rules beside
# datalog and existential ones; every derived atom has one derivation,
# so the recorded parent is the same whatever the join order.
MIXED = parse_theory(
    "true -> exists z. R(x, z)\n"
    "R(x, y) -> S(y, x)\n"
    "S(x, y), P(x) -> exists w. T(x, y, w)\n"
    "P(x) -> Q(x, y)\n"
    "true -> exists u. L(u, u)",
    name="mixed-universal",
)

CASES = [
    pytest.param(t_d(), green_path(n), rounds, id=f"t_d-path{n}-r{rounds}")
    for n in range(2, 7)
    for rounds in range(1, 6)
] + [
    pytest.param(
        parse_theory("P(x) -> Q(x, y)", name="universal-head"),
        parse_instance("P(a). P(b)"),
        4,
        id="body-universal",
    ),
] + [
    pytest.param(MIXED, parse_instance("P(a). R(a, b). P(b)"), rounds, id=f"mixed-r{rounds}")
    for rounds in range(1, 5)
]


def _budget(rounds):
    return ChaseBudget(max_rounds=rounds, max_atoms=200_000)


@pytest.mark.parametrize("theory, base, rounds", CASES)
def test_memory_and_columnar_agree(theory, base, rounds):
    memory = chase(theory, base, budget=_budget(rounds), backend="memory")
    naive = chase(
        theory, base, budget=_budget(rounds), backend="memory", semi_naive=False
    )
    assert memory.round_added == naive.round_added
    columnar = chase(theory, base, budget=_budget(rounds), backend="columnar")
    assert columnar.round_added == memory.round_added
    assert columnar.derivations == memory.derivations
    assert columnar.terminated == memory.terminated
    for name in EXACT_COUNTERS:
        assert columnar.stats.counters[name] == memory.stats.counters[name], name
    # The kernel carried every rule.
    assert "columnar.fallback_rules" not in columnar.stats.counters
    assert columnar.stats.counters["columnar.matches"] == columnar.stats.counters[
        "chase.matches"
    ]


@pytest.mark.parametrize("theory, base, rounds", CASES)
def test_store_agrees_with_memory(theory, base, rounds):
    memory = chase(theory, base, budget=_budget(rounds), backend="memory")
    with SQLiteStore(":memory:") as store:
        outcome = chase_into_store(theory, base, store, budget=_budget(rounds))
        assert outcome.terminated == memory.terminated
        assert outcome.rounds_run == memory.rounds_run
        assert store.max_round() == memory.rounds_run
        for round_, added in enumerate(memory.round_added):
            assert store.atoms_in_round(round_) == added, round_
        assert outcome.digest() == content_digest(memory.instance)


@pytest.mark.parametrize("stop", [1, 2, 3, 4])
@pytest.mark.parametrize("theory, base", [(t_d(), green_path(4)), (MIXED, parse_instance("P(a). R(a, b)"))])
def test_budget_stop_then_resume_equals_one_shot(tmp_path, theory, base, stop):
    total = 5
    one_shot = chase(theory, base, budget=_budget(total), backend="memory")
    for backend in ("memory", "columnar"):
        prefix = chase(theory, base, budget=_budget(stop), backend=backend)
        resumed = resume(prefix, total - stop, backend=backend)
        assert resumed.round_added == one_shot.round_added, backend
        for name in EXACT_COUNTERS:
            assert resumed.stats.counters[name] == one_shot.stats.counters[name]
    path = str(tmp_path / "universal.db")
    with SQLiteStore(path) as store:
        chase_into_store(theory, base, store, budget=_budget(stop))
    with SQLiteStore(path) as store:  # a fresh connection: only the file
        outcome = resume_store_chase(store, budget=_budget(total - stop))
        assert outcome.rounds_run == one_shot.rounds_run
        assert outcome.digest() == content_digest(one_shot.instance)
        for round_, added in enumerate(one_shot.round_added):
            assert store.atoms_in_round(round_) == added, round_
