"""Rule constants on every id-native engine.

A rule's id-slot program (:class:`repro.chase.planner.RuleProgram`) is
lowered once per ``Theory`` with its constants left as terms; each run
binds them to its own store's ids when it starts.  These tests pin that
binding: quoted constants in rule bodies and heads give the same
fixpoint on the object engine, the columnar kernel (including a mirror
carried across incremental updates) and the SQLite store chase — also
when a store-chase round that first interned a rule constant is rolled
back and the same store object is resumed.
"""

from __future__ import annotations

from repro import incremental_update
from repro.chase import ChaseBudget, chase
from repro.logic import Instance, parse_instance, parse_theory
from repro.logic.terms import Constant
from repro.storage import (
    SQLiteStore,
    chase_into_store,
    content_digest,
    resume_store_chase,
)

# 'hub' occurs in the data; 'on', 'seen' and 'yes' only in the rules,
# so a store chase interns them itself.
THEORY = parse_theory(
    "E(x, 'hub') -> Spoke(x, 'on')\n"
    "Spoke(x, 'on'), E(x, y) -> exists w. Mark(y, w, 'seen')\n"
    "E(x, y), E(y, z) -> E(x, z)\n"
    "Mark(y, w, 'seen') -> Seen(y, 'yes')",
    name="constants",
)
BASE = parse_instance("E(a, hub). E(b, a). E(hub, c). E(c, d).")
BUDGET = ChaseBudget(max_rounds=30)


def fact(text: str):
    return next(iter(parse_instance(text)))


def scratch_digest(base) -> str:
    run = chase(
        THEORY, Instance(sorted(base, key=repr)), budget=BUDGET, backend="memory"
    )
    assert run.terminated
    return content_digest(run.instance)


class CountdownToken:
    """Reports cancelled from the ``checks``-th poll on."""

    def __init__(self, checks: int) -> None:
        self.remaining = checks

    @property
    def cancelled(self) -> bool:
        if self.remaining <= 0:
            return True
        self.remaining -= 1
        return False


def test_engines_agree_on_rule_constants():
    memory = chase(THEORY, BASE, budget=BUDGET, backend="memory")
    columnar = chase(THEORY, BASE, budget=BUDGET, backend="columnar")
    assert memory.terminated and columnar.terminated
    assert fact("Seen(hub, yes).") in memory.instance
    assert columnar.instance == memory.instance
    assert columnar.derivations == memory.derivations
    for name in ("chase.matches", "chase.atoms_produced", "chase.dedup_hits"):
        assert columnar.stats.counters[name] == memory.stats.counters[name], name
    with SQLiteStore(":memory:") as store:
        assert chase_into_store(THEORY, BASE, store, budget=BUDGET).terminated
        assert store.digest() == content_digest(memory.instance)


def test_incremental_update_through_the_carried_mirror():
    base = set(BASE)
    result = chase(THEORY, BASE, budget=BUDGET, backend="columnar")
    for add, retract in (
        ([fact("E(d, hub).")], []),
        ([fact("E(e, hub).")], [fact("E(a, hub).")]),
    ):
        outcome = incremental_update(
            result, add=add, retract=retract, budget=BUDGET, backend="columnar"
        )
        result = outcome.result
        base = (base - set(retract)) | set(add)
        # The first update leaves its mirror behind; the second runs on it.
        assert result._maintenance is not None
        assert result._maintenance.mirror is not None
        assert content_digest(result.instance) == scratch_digest(base)


def test_store_round_rolled_back_after_interning_a_rule_constant():
    reference = scratch_digest(BASE)
    with SQLiteStore(":memory:") as store:
        # Polls: round 1's start, its first rule; the second rule's
        # boundary cancels, after the run interned 'on', 'seen', 'yes'
        # and the first rule inserted its rows.
        cut = chase_into_store(
            THEORY, BASE, store, budget=BUDGET, cancel=CountdownToken(2)
        )
        assert not cut.terminated
        assert store.stats.counters["chase.cancelled"] == 1
        assert store.get_meta("storechase.rounds") == "0"
        assert store.term_id(Constant("on")) is None  # rolled back
        resumed = resume_store_chase(store, THEORY, budget=BUDGET)
        assert resumed.terminated
        assert store.digest() == reference
