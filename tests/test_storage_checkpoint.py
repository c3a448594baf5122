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
    update_store_chase,
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


class TestRuleTextConstants:
    """The persisted rule text keeps constants constants."""

    THEORY = "P(x) -> Q(x, 'c')\nQ(x, y) -> exists z. R(y, z)"

    def _stopped_store(self, path):
        store = SQLiteStore(path)
        chase_into_store(
            parse_theory(self.THEORY),
            parse_instance("P(a). P(b)"),
            store,
            budget=ChaseBudget(max_rounds=1),
        )
        return store

    def test_resume_without_theory_matches_explicit(self, tmp_path):
        theory = parse_theory(self.THEORY)
        expected = content_digest(chase(theory, parse_instance("P(a). P(b)")).instance)
        with self._stopped_store(str(tmp_path / "implicit.db")) as store:
            assert resume_store_chase(store).digest() == expected
        with self._stopped_store(str(tmp_path / "explicit.db")) as store:
            assert resume_store_chase(store, theory).digest() == expected

    def test_update_without_theory_matches_explicit(self, tmp_path):
        theory = parse_theory(self.THEORY)
        add = parse_instance("P(d)")
        expected = content_digest(
            chase(theory, parse_instance("P(a). P(b). P(d)")).instance
        )
        for name, passed in (("implicit.db", None), ("explicit.db", theory)):
            with self._stopped_store(str(tmp_path / name)) as store:
                resume_store_chase(store, theory)
                outcome = update_store_chase(store, passed, add=add)
                assert outcome.digest() == expected, name

    def test_legacy_bare_constant_text_still_resumes(self, tmp_path):
        theory = parse_theory(self.THEORY)
        legacy = "".join(f"{rule!r}\n" for rule in theory)
        assert "'c'" not in legacy
        expected = content_digest(chase(theory, parse_instance("P(a). P(b)")).instance)
        with self._stopped_store(str(tmp_path / "legacy.db")) as store:
            store.set_meta("storechase.theory", legacy)
            assert resume_store_chase(store, theory).digest() == expected
            outcome = update_store_chase(store, theory, add=parse_instance("P(d)"))
            assert outcome.terminated
