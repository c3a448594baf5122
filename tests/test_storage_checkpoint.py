"""Store-chase resume exactness: suspended == uninterrupted, to the atom.

Observation 8 (prefix-exactness of the semi-oblivious Skolem chase) is
what makes a suspended chase *exactly* resumable rather than
best-effort: a budget-stopped chase inside SQLite
(:mod:`repro.storage.chasestore`), resumed in a fresh connection, must
produce the same rounds, the same atoms (Skolem terms included) and the
same counters as one uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro.chase import ChaseBudget, chase
from repro.logic import parse_instance, parse_theory
from repro.storage import (
    SQLiteStore,
    StoreChaseError,
    chase_into_store,
    content_digest,
    resume_store_chase,
)
from repro.workloads import edge_cycle, example42_tc

class TestStoreChaseResume:
    def test_budget_stop_then_resume_matches_one_shot(self, tmp_path):
        theory = example42_tc()
        cycle = edge_cycle(5)
        one_shot = chase(theory, cycle, budget=ChaseBudget(max_rounds=6, max_atoms=500_000))
        path = str(tmp_path / "chase.db")
        with SQLiteStore(path) as store:
            chase_into_store(
                theory, cycle, store, budget=ChaseBudget(max_rounds=2, max_atoms=500_000)
            )
        # Resume in a fresh connection, theory re-parsed from the store.
        with SQLiteStore(path) as store:
            outcome = resume_store_chase(
                store, budget=ChaseBudget(max_rounds=4, max_atoms=500_000)
            )
            assert outcome.rounds_run == one_shot.rounds_run
            assert outcome.digest() == content_digest(one_shot.instance)
            for round_ in range(one_shot.rounds_run + 1):
                assert store.atoms_in_round(round_) == one_shot.round_added[round_]
            counters = outcome.stats.counters
            reference = one_shot.stats.counters
            for name in ("chase.rounds", "chase.matches", "chase.atoms_produced"):
                assert counters[name] == reference[name], name

    def test_resume_terminated_store_is_idempotent(self, tmp_path):
        theory = parse_theory("E(x, y) -> R(x, y)", name="one-step")
        base = parse_instance("E(a, b). E(b, c)")
        path = str(tmp_path / "chase.db")
        with SQLiteStore(path) as store:
            first = chase_into_store(theory, base, store)
            assert first.terminated
            digest = first.digest()
        with SQLiteStore(path) as store:
            again = resume_store_chase(store)
            assert again.terminated
            assert again.digest() == digest

    def test_resume_requires_state(self):
        with SQLiteStore(":memory:") as store:
            store.add_many(parse_instance("E(a, b)"))
            with pytest.raises(StoreChaseError):
                resume_store_chase(store)
