"""The store-backed chase: semi-naive rounds evaluated *inside* SQLite.

:func:`repro.chase.engine.chase` materializes every round in RAM, which
caps the reachable instance size at available memory.  This module runs
the same semi-oblivious Skolem chase (Definition 6) with the facts living
only in a :class:`~repro.storage.sqlite.SQLiteStore`:

* each rule body is compiled (per round) into SELECT-joins by
  :func:`~repro.storage.sqlcompile.build_select`, with per-alias *round
  bounds* implementing semi-naive evaluation — one plan per pivot atom,
  the pivot pinned to the delta round ``r-1``, atoms before it to
  strictly older rounds, atoms after it to ``<= r-1`` (so each
  delta-touching sigma is enumerated exactly once, and facts inserted
  mid-round — tagged ``r`` — are invisible to the round's own joins,
  preserving Definition 6's round semantics);
* head atoms are produced **id-natively**: the SELECT rows are term-id
  tuples, Skolem terms are interned from child ids
  (:meth:`~repro.storage.sqlite.SQLiteStore.intern_function`) and the
  rows go back via batched ``INSERT OR IGNORE`` — no Python ``Term`` or
  ``Atom`` objects exist for the facts themselves, so peak RSS is
  bounded by the batch size, not the instance;
* the chase state (theory, completed rounds, termination) is persisted
  in the store's meta table after every round, so a budget-stopped run
  is resumable from disk — by Observation 8 and Skolem-naming
  determinism the continuation is exact, not approximate;
* each round commits **atomically**: the round's fact rows and the
  updated ``storechase.*`` state land in one SQLite transaction, so a
  process killed at *any* instant (even ``SIGKILL`` mid-insert) leaves
  the database at the last complete round and
  :func:`resume_store_chase` continues exactly — see
  ``docs/robustness.md``.  Deadlines (``ChaseBudget.deadline_s``) and
  :class:`~repro.chase.engine.CancellationToken` are honoured at round
  boundaries and inside long rounds; an interrupted round is rolled
  back, never half-applied.

Rules with *universal head variables* (the ``T_d`` style
``true -> exists z. R(x, z)`` rules, whose head ranges over the active
domain) run here too, in the object engine's enumeration order: each
round reads the term ids of the facts up to round ``r-1``, with the ids
first seen in round ``r-1`` as its delta.  That domain pool is held in
RAM, so a universal theory's store chase has O(domain) peak RSS, not
O(batch).
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import time
from dataclasses import dataclass

from .. import faults
from ..chase.engine import (
    CancellationToken,
    ChaseBudget,
    ChaseBudgetExceeded,
    _RoundInterrupt,
    _RunControl,
    note_interruption,
    universal_matches,
)
from ..chase.planner import CONTROL_CHECK_STRIDE
from ..chase.skolem import skolemize
from ..logic.instance import Instance
from ..logic.serialize import dump_rule
from ..logic.terms import FunctionTerm, Variable
from ..logic.tgd import Theory
from ..telemetry import Telemetry
from .sqlcompile import build_select
from .sqlite import SQLiteStore, fact_key, parse_fact_key

STORE_CHASE_SCHEMA = "repro-storechase/1"


class StoreChaseError(RuntimeError):
    """The store chase cannot run: foreign, mismatched or inconsistent state."""


@dataclass
class StoreChaseResult:
    """Outcome of a store-backed chase (facts stay in the store).

    Mirrors :class:`~repro.chase.engine.ChaseResult` where it can:
    ``rounds_run`` counts completed productive rounds, ``terminated``
    reports the fixpoint, ``stats`` carries the telemetry (``chase.*``
    round counters plus the store's ``store.*`` counters — the store
    chase shares the store's collector).  The instance itself is *not*
    materialized; call :meth:`to_instance` (or query via
    :mod:`repro.storage.sqlcompile`) when you really want the atoms.
    """

    store: SQLiteStore
    rounds_run: int
    terminated: bool
    atom_count: int
    stats: Telemetry

    def to_instance(self) -> Instance:
        return self.store.to_instance()

    def digest(self) -> str:
        return self.store.digest()


# A head-slot recipe, resolved per sigma row: ("v", i) copies the i-th
# sigma value (body variables first, then universal ones), ("f",
# functor, indices) interns a Skolem term over those row positions,
# ("c", term_id) is a pre-interned ground term.
_Slot = tuple

# The parent key recorded for a fact produced by a bodyless rule: such
# a fact is derived (not base), yet no retraction can reach it.
_EMPTY_BODY = "true"


class _StoreRule:
    """A rule compiled for id-native application against a store."""

    def __init__(self, rule, store: SQLiteStore) -> None:
        self.rule = rule
        skolemized = skolemize(rule)
        self.body = tuple(rule.body)
        body_vars: list[Variable] = []
        for item in self.body:
            for term in item.args:
                if isinstance(term, Variable) and term not in body_vars:
                    body_vars.append(term)
        self.body_vars = tuple(body_vars)
        # Universal head variables range over the round's domain; their
        # values extend each body row (the planner's canonical order).
        self.universal = tuple(
            sorted(rule.universal_head_variables(), key=lambda var: var.name)
        )
        index_of = {var: i for i, var in enumerate(body_vars + list(self.universal))}

        def slot(term) -> _Slot:
            if isinstance(term, Variable):
                return ("v", index_of[term])
            return ("c", store.intern_term(term))

        self.head_specs: list[tuple] = []
        for item in skolemized.head:
            slots: list[_Slot] = []
            for term in item.args:
                if isinstance(term, FunctionTerm) and not term.is_ground():
                    slots.append(
                        ("f", term.functor, tuple(index_of[arg] for arg in term.args))
                    )
                else:
                    slots.append(slot(term))
            self.head_specs.append((item.predicate, tuple(slots)))
        # Body-atom recipes for provenance: each body atom rendered as a
        # fact key per sigma row, recorded as the (child, parent) support
        # edges that ``update_store_chase`` walks to over-delete a
        # retraction's cone.
        self.body_specs = [
            (item.predicate, tuple(slot(term) for term in item.args))
            for item in self.body
        ]

    def apply(self, row: tuple, store: SQLiteStore) -> "list[tuple]":
        """Head fact rows (as id tuples, paired with predicates) for one sigma."""
        out = []
        for predicate, slots in self.head_specs:
            ids = []
            for slot in slots:
                if slot[0] == "v":
                    ids.append(row[slot[1]])
                elif slot[0] == "f":
                    ids.append(
                        store.intern_function(
                            slot[1], tuple(row[i] for i in slot[2])
                        )
                    )
                else:
                    ids.append(slot[1])
            out.append((predicate, tuple(ids)))
        return out

    def parent_keys(self, row: tuple) -> "list[str]":
        """The body image of one sigma row, as fact keys."""
        keys = []
        for predicate, slots in self.body_specs:
            ids = tuple(
                row[slot[1]] if slot[0] == "v" else slot[1] for slot in slots
            )
            keys.append(fact_key(predicate, ids))
        return keys or [_EMPTY_BODY]

    def select(self, store: SQLiteStore, bounds: list):
        """Body rows (raw sigma tuples) under per-alias round bounds."""
        compiled = build_select(
            self.body, self.body_vars, store, round_bounds=bounds, distinct=False
        )
        if compiled is None:
            return  # a body predicate has no fact table yet
        counters = store.stats.counters
        for row in store._select(compiled.sql, compiled.params):
            counters["store.rows_scanned"] += 1
            yield row

    def sources(self, store: SQLiteStore, last: int, full: bool, domain):
        """This round's sigma rows, as a list of row iterables.

        ``full`` (the first round, or the re-derive pass after a
        retraction) evaluates the body over everything up to round
        ``last``; otherwise one semi-naive plan per pivot pins the pivot
        to ``last``, atoms before it to strictly older rounds and atoms
        after it to ``<= last``, so each delta-touching sigma comes up
        exactly once.  Rules with universal variables extend the rows
        through :func:`~repro.chase.engine.universal_matches` over
        ``domain`` (see :func:`_domain`).
        """
        width = len(self.body)
        everything = [("le", last)] * width
        if full:
            plans = [everything]
        else:
            plans = [
                [("lt", last)] * pivot
                + [("eq", last)]
                + [("le", last)] * (width - pivot - 1)
                for pivot in range(width)
            ]
        if width:
            sources = [self.select(store, bounds) for bounds in plans]
        else:  # an empty body has one empty match, in a full round only
            sources = [((),)] if full else []
        if not self.universal:
            return sources
        pool, delta_pool, old_pool = domain
        paired = universal_matches(
            len(self.universal),
            itertools.chain.from_iterable(sources),
            lambda: self.select(store, everything) if width else ((),),
            pool,
            None if full or not delta_pool else (delta_pool, old_pool),
        )
        return [(row + values for row, values in paired)]


def _domain(store: SQLiteStore, last: int) -> "tuple[list, list, list]":
    """The term ids of facts up to round ``last``: ``(pool, delta, old)``.

    ``delta`` holds the ids first seen in round ``last`` (the terms the
    previous round invented), ``old`` the rest.  Ordered by id; held in
    RAM, so a universal theory's store chase is O(domain) in memory.
    """
    first_seen: dict[int, int] = {}
    for predicate, table in store._tables.items():
        for position in range(predicate.arity):
            for term_id, round_ in store._select(
                f"SELECT a{position}, MIN(round) FROM {table} "
                f"WHERE round <= ? GROUP BY a{position}",
                (last,),
            ):
                seen = first_seen.get(term_id)
                if seen is None or round_ < seen:
                    first_seen[term_id] = round_
    pool = sorted(first_seen)
    delta = [term_id for term_id in pool if first_seen[term_id] == last]
    old = [term_id for term_id in pool if first_seen[term_id] != last]
    return pool, delta, old


def _theory_text(theory: Theory) -> str:
    """Canonical rule text for state matching: one rule a line, no name header.

    :func:`~repro.logic.serialize.dump_rule` carries no labels and quotes
    constants, so a theory reparsed from this text (labels regenerated)
    is the same theory and serializes back to the same string — resume
    matching survives the round-trip.
    """
    return "\n".join(dump_rule(rule) for rule in theory) + "\n"


def _chased_under(persisted: str, theory: Theory) -> bool:
    """Does the persisted ``storechase.theory`` text name ``theory``?

    Databases written before rule text quoted constants hold the rules'
    ``repr``s (constants bare); those still match the theory passed in.
    """
    return persisted in (
        _theory_text(theory),
        "\n".join(repr(rule) for rule in theory) + "\n",
    )


def _persist_state(
    store: SQLiteStore,
    rounds: int,
    terminated: bool,
    stats: Telemetry,
    commit: bool = True,
) -> None:
    store.set_meta("storechase.rounds", str(rounds), commit=False)
    store.set_meta("storechase.terminated", "1" if terminated else "0", commit=False)
    store.set_meta("storechase.stats", json.dumps(stats.as_dict()), commit=False)
    if commit:
        store.commit()


def _maybe_kill(name: str, round_: int) -> None:
    """Fault hook: die without ceremony, as a crashed process would.

    ``storechase.kill`` fires just before the round commit,
    ``storechase.kill_midround`` during row inserts — both must leave a
    database that resumes to the exact fixpoint (the chaos suite checks
    digests and counters across the kill).
    """
    if faults.active() and faults.fire(name, round_):
        os.kill(os.getpid(), signal.SIGKILL)


def _filter_existing_supports(
    store: SQLiteStore, supports: "list[tuple[str, str]]"
) -> None:
    """Drop support pairs whose child fact already exists in the store.

    Mirrors the in-memory engine, which records a derivation only when
    the produced atom is genuinely new: without this filter a base fact
    re-derived by some rule would gain support edges, stop looking base,
    and become deletable by the DRed cascade (and un-retractable by
    :func:`update_store_chase`'s derived-fact check).  Must run *before*
    the batch's rows are inserted — afterwards every child would read as
    existing.
    """
    if not supports:
        return
    present = store.existing_fact_keys({child for child, _ in supports})
    if present:
        supports[:] = [pair for pair in supports if pair[0] not in present]


def _execute_round(
    store: SQLiteStore,
    prepared: "list[_StoreRule]",
    round_number: int,
    control: "_RunControl | None",
    full: bool,
) -> "tuple[int, int, int]":
    """One store round's trigger matching and batched inserts.

    Returns ``(matches, produced_rows, inserted)``.  Produced facts land
    at round tag ``round_number``; every *genuinely new* row also records
    its (child, parent) support edges — flushed alongside the fact
    batches, inside the same per-round transaction — which is the
    provenance :func:`update_store_chase` walks for DRed over-deletion.
    Rows whose fact already exists are filtered out of the support batch
    first (:func:`_filter_existing_supports`), so base facts never
    acquire edges and never enter the deletion cascade.

    ``full`` selects full-width evaluation (see :meth:`_StoreRule.sources`)
    — the first chase round, or the re-derive round after a retraction —
    over the standard semi-naive pivots.  Raises
    :class:`~repro.chase.engine._RoundInterrupt` on deadline or
    cancellation, leaving the partial round uncommitted.
    """
    batch_size = store.batch_size
    stride = CONTROL_CHECK_STRIDE - 1
    last = round_number - 1
    domain = (
        _domain(store, last) if any(rule.universal for rule in prepared) else None
    )
    matches = 0
    produced_rows = 0
    inserted = 0
    supports: "list[tuple[str, str]]" = []
    for rule in prepared:
        if control is not None:
            reason = control.interruption()
            if reason is not None:
                raise _RoundInterrupt(reason)
        for source in rule.sources(store, last, full, domain):
            pending: dict = {}
            pending_rows = 0
            for row in source:
                matches += 1
                if control is not None and not (matches & stride):
                    reason = control.interruption()
                    if reason is not None:
                        raise _RoundInterrupt(reason)
                parents = rule.parent_keys(row)
                for predicate, ids in rule.apply(row, store):
                    produced_rows += 1
                    pending.setdefault(predicate, []).append(ids)
                    pending_rows += 1
                    child = fact_key(predicate, ids)
                    supports.extend((child, parent) for parent in parents)
                if pending_rows >= batch_size:
                    _filter_existing_supports(store, supports)
                    for predicate, rows in pending.items():
                        inserted += store.insert_rows(
                            predicate, rows, round_number
                        )
                    pending.clear()
                    pending_rows = 0
                    store.add_supports(supports)
                    supports.clear()
                    _maybe_kill("storechase.kill_midround", round_number)
            _filter_existing_supports(store, supports)
            for predicate, rows in pending.items():
                inserted += store.insert_rows(predicate, rows, round_number)
            store.add_supports(supports)
            supports.clear()
            if pending:
                _maybe_kill("storechase.kill_midround", round_number)
    return matches, produced_rows, inserted


def chase_into_store(
    theory: Theory,
    base: "Instance | None",
    store: SQLiteStore,
    budget: "ChaseBudget | None" = None,
    cancel: "CancellationToken | None" = None,
) -> StoreChaseResult:
    """Run (or continue) the Skolem chase with facts living in ``store``.

    A fresh store gets ``base`` loaded as round 0 and chased from there;
    a store already carrying store-chase state *resumes* where it
    stopped (``base`` must then be ``None`` — the persisted round 0 is
    the base) for up to ``budget.max_rounds`` *further* rounds.  The
    persisted theory must match ``theory`` rule-for-rule; state is
    written after every round, so even a killed process resumes
    round-exactly.

    Raises :class:`StoreChaseError` for mismatched resume state or a
    non-empty store with no chase state.  Budget overruns — including
    ``budget.deadline_s`` and a fired ``cancel`` token — follow
    ``budget.on_exceeded``; either way the store holds the last
    *complete* round and can be resumed.
    """
    budget = budget if budget is not None else ChaseBudget()
    stats = store.stats
    counters = stats.counters
    theory_text = _theory_text(theory)
    schema = store.get_meta("storechase.schema")
    if schema is not None:
        if schema != STORE_CHASE_SCHEMA:
            raise StoreChaseError(f"unsupported store-chase schema {schema!r}")
        if not _chased_under(store.get_meta("storechase.theory", ""), theory):
            raise StoreChaseError(
                "store was chased under a different theory; refusing to mix"
            )
        if base is not None:
            raise StoreChaseError(
                "resuming a store chase: base is already persisted, pass None"
            )
        if store.get_meta("storechase.repair") == "1":
            raise StoreChaseError(
                "store holds an interrupted incremental update (the "
                "deletion cone is applied but not yet re-derived); finish "
                "it with repro.incremental.update_store_chase"
            )
        rounds_run = int(store.get_meta("storechase.rounds", "0"))
        terminated = store.get_meta("storechase.terminated") == "1"
        # Remove debris from a crashed round: the per-round transaction
        # makes this a no-op in practice, but resume stays idempotent
        # even against databases written by older layouts.
        store.delete_rounds_above(rounds_run)
        total = len(store)
        # A fresh connection starts with an empty collector; fold the
        # persisted snapshot back in so a suspended-and-resumed chase
        # reports the same counters and per-round records as one
        # uninterrupted run.  A same-connection resume already holds them
        # live (chase.rounds > 0) and must not double-count.
        if counters["chase.rounds"] == 0:
            persisted_stats = store.get_meta("storechase.stats")
            if persisted_stats:
                stats.merge(Telemetry.from_dict(json.loads(persisted_stats)))
        if terminated:
            return StoreChaseResult(store, rounds_run, True, total, stats)
    else:
        if len(store):
            raise StoreChaseError(
                "store holds facts but no store-chase state; start from an "
                "empty store (or resume one this module wrote)"
            )
        # Base facts and the initial state markers land in ONE
        # transaction: a crash during setup leaves either a fully
        # initialised store or an untouched one, never facts without
        # ``storechase.*`` state.
        if base is not None:
            for item in base:
                store.buffer(item, round_=0)
            store._flush_pending()
        store.set_meta("storechase.schema", STORE_CHASE_SCHEMA, commit=False)
        store.set_meta("storechase.theory", theory_text, commit=False)
        # Marks that every derived fact in this store carries support
        # edges — the precondition for retractions in
        # ``update_store_chase`` (databases written before the supports
        # table existed resume fine but cannot be retracted from).
        store.set_meta("storechase.supports", "1", commit=False)
        rounds_run = 0
        terminated = False
        _persist_state(store, rounds_run, terminated, stats, commit=False)
        store.commit()
        total = len(store)

    prepared = [_StoreRule(rule, store) for rule in theory]
    control = _RunControl.start(budget, cancel)
    interrupted: "str | None" = None

    with stats.timer("chase"):
        for _ in range(budget.max_rounds):
            if control is not None:
                reason = control.interruption()
                if reason is not None:
                    interrupted = reason
                    break
            round_number = rounds_run + 1
            round_started = time.perf_counter()
            terms_before = counters["store.terms_interned"]
            try:
                matches, produced_rows, inserted = _execute_round(
                    store, prepared, round_number, control, full=round_number == 1
                )
            except _RoundInterrupt as stop:
                # Abandon the round wholesale: rows inserted so far are
                # rolled back, so disk holds exactly the last complete
                # round (Observation 8 makes the re-run exact).
                store.rollback()
                stats.record_round(
                    round=round_number,
                    aborted=True,
                    total_atoms=total,
                    seconds=round(time.perf_counter() - round_started, 6),
                )
                interrupted = stop.reason
                break
            total += inserted
            dedup_hits = produced_rows - inserted
            counters["chase.rounds"] += 1
            counters["chase.matches"] += matches
            counters["chase.atoms_produced"] += inserted
            counters["chase.dedup_hits"] += dedup_hits
            if inserted:
                rounds_run = round_number
            else:
                terminated = True
            stats.record_round(
                round=round_number,
                matches=matches,
                atoms_produced=inserted,
                dedup_hits=dedup_hits,
                new_terms=counters["store.terms_interned"] - terms_before,
                total_atoms=total,
                seconds=round(time.perf_counter() - round_started, 6),
            )
            # The round's facts and the updated chase state commit as ONE
            # transaction — the SIGKILL-atomicity the chaos suite pins.
            _persist_state(store, rounds_run, terminated, stats, commit=False)
            _maybe_kill("storechase.kill", round_number)
            store.commit()
            if terminated:
                break
            if total > budget.max_atoms:
                if budget.on_exceeded == "raise":
                    raise ChaseBudgetExceeded(
                        f"store chase exceeded {budget.max_atoms} atoms after "
                        f"{rounds_run} rounds"
                    )
                break
        if interrupted is not None:
            note_interruption(stats, interrupted, budget, rounds_run)

    return StoreChaseResult(
        store=store,
        rounds_run=rounds_run,
        terminated=terminated,
        atom_count=total,
        stats=stats,
    )


def resume_store_chase(
    store: SQLiteStore,
    theory: "Theory | None" = None,
    budget: "ChaseBudget | None" = None,
    cancel: "CancellationToken | None" = None,
) -> StoreChaseResult:
    """Continue a persisted store chase (``theory`` defaults to the stored one)."""
    if store.get_meta("storechase.schema") is None:
        raise StoreChaseError(f"{store!r} holds no store-chase state")
    if theory is None:
        from ..logic.parser import parse_theory

        theory = parse_theory(
            store.get_meta("storechase.theory", ""), name="storechase"
        )
    return chase_into_store(theory, None, store, budget=budget, cancel=cancel)


def _encode_existing(store: SQLiteStore, item) -> "tuple[int, ...] | None":
    """Term-id row for an atom, or ``None`` if any term is unknown."""
    ids = []
    for term in item.args:
        term_id = store.term_id(term)
        if term_id is None:
            return None
        ids.append(term_id)
    return tuple(ids)


def update_store_chase(
    store: SQLiteStore,
    theory: "Theory | None" = None,
    add=(),
    retract=(),
    budget: "ChaseBudget | None" = None,
    cancel: "CancellationToken | None" = None,
) -> StoreChaseResult:
    """Maintain a terminated store chase under base adds and retractions.

    The DRed/delta counterpart of :func:`repro.incremental.incremental_update`
    with the facts living only in SQLite:

    * **retractions** delete the retracted rows plus their transitive
      support cone (walked over ``repro_supports``; facts without
      support edges — round-0 facts, update-added facts, promoted facts
      — are never cascaded into), then re-derive survivors with one
      full-width round before returning to standard semi-naive pivots;
    * **additions** insert the new facts at a fresh round tag and run
      plain semi-naive rounds from there — by Observation 8 and Skolem
      determinism this derives exactly the missing consequences.  An
      added fact the chase had already derived is *promoted* to base
      (its support edges are dropped so retractions elsewhere can no
      longer cascade through it).

    The deletion phase, base inserts and updated ``storechase.*`` state
    commit as one transaction; after a retraction a ``storechase.repair``
    marker stays set until the full-width re-derive round lands, so a
    crash mid-update is detected — :func:`resume_store_chase` refuses the
    database and this function (with or without further changes)
    finishes the repair.  The final content digest equals clearing the
    store and re-chasing the updated base from scratch.

    Raises :class:`StoreChaseError` for missing/unterminated/foreign
    chase state and pre-supports databases on retraction; ``ValueError``
    — as :func:`repro.incremental.incremental_update` does — for
    retracting a derived fact (bodyless-rule productions included),
    retracting under a theory with universal head variables, or adding
    and retracting the same fact.
    """
    budget = budget if budget is not None else ChaseBudget()
    stats = store.stats
    counters = stats.counters

    schema = store.get_meta("storechase.schema")
    if schema is None:
        raise StoreChaseError(f"{store!r} holds no store-chase state to update")
    if schema != STORE_CHASE_SCHEMA:
        raise StoreChaseError(f"unsupported store-chase schema {schema!r}")
    if theory is None:
        from ..logic.parser import parse_theory

        theory = parse_theory(
            store.get_meta("storechase.theory", ""), name="storechase"
        )
    elif not _chased_under(store.get_meta("storechase.theory", ""), theory):
        raise StoreChaseError(
            "store was chased under a different theory; refusing to mix"
        )
    repair_pending = store.get_meta("storechase.repair") == "1"
    if store.get_meta("storechase.terminated") != "1" and not repair_pending:
        raise StoreChaseError(
            "store chase is not at a fixpoint; resume_store_chase first"
        )
    prepared = [_StoreRule(rule, store) for rule in theory]

    add = list(add)
    retract = list(retract)
    overlap = {item for item in add if item in retract}
    if overlap:
        raise ValueError(
            f"facts both added and retracted: {sorted(map(str, overlap))}"
        )
    if retract and store.get_meta("storechase.supports") != "1":
        raise StoreChaseError(
            "store predates support tracking; retraction needs a re-chase "
            "(re-run chase_into_store on a fresh store)"
        )

    rounds_run = int(store.get_meta("storechase.rounds", "0"))
    epoch = rounds_run + 1

    with stats.timer("delta"):
        # ---- resolve the update against the stored facts -------------
        removed_keys: "list[str]" = []
        for item in retract:
            ids = _encode_existing(store, item)
            if ids is None or item not in store:
                continue
            key = fact_key(item.predicate, ids)
            if store.has_support(key):
                raise ValueError(
                    f"cannot retract derived fact {item} (retract its base "
                    "ancestors instead)"
                )
            removed_keys.append(key)
        if removed_keys:
            from ..incremental import _check_retraction_supported

            _check_retraction_supported(theory)
        to_insert = [item for item in add if item not in store]
        promoted_keys = []
        for item in add:
            ids = _encode_existing(store, item)
            if ids is not None and item in store:
                key = fact_key(item.predicate, ids)
                if store.has_support(key):
                    promoted_keys.append(key)

        if not removed_keys and not to_insert and not promoted_keys:
            if not repair_pending:
                counters["delta.noops"] += 1
                return StoreChaseResult(
                    store, rounds_run, True, len(store), stats
                )
        else:
            counters["delta.updates"] += 1
            counters["delta.added_base"] += len(to_insert) + len(promoted_keys)
            counters["delta.retracted_base"] += len(removed_keys)

        # ---- over-delete the retraction cone -------------------------
        deleted: "set[str]" = set()
        if removed_keys:
            deleted = set(removed_keys)
            frontier = list(deleted)
            while frontier:
                children = store.support_children(frontier)
                frontier = [key for key in children if key not in deleted]
                deleted.update(frontier)
            store.delete_fact_rows(deleted)
            store.delete_supports_of(deleted)
            counters["delta.overdeleted"] += len(deleted) - len(removed_keys)

        # ---- apply base changes + state in ONE transaction -----------
        if promoted_keys:
            store.delete_supports_of(promoted_keys)
        for item in to_insert:
            store.buffer(item, round_=epoch)
        store._flush_pending()
        needs_repair = bool(removed_keys) or repair_pending
        store.set_meta(
            "storechase.repair", "1" if needs_repair else "0", commit=False
        )
        terminated = not needs_repair and not to_insert
        _persist_state(store, epoch, terminated, stats, commit=False)
        store.commit()
        rounds_run = epoch
        total = len(store)
        if terminated:
            # Promotions / no-op repairs change no derived facts.
            return StoreChaseResult(store, rounds_run, True, total, stats)

        # ---- re-derive to a fresh fixpoint ---------------------------
        control = _RunControl.start(budget, cancel)
        interrupted: "str | None" = None
        first_round = True
        terminated = False
        for _ in range(budget.max_rounds):
            if control is not None:
                reason = control.interruption()
                if reason is not None:
                    interrupted = reason
                    break
            round_number = rounds_run + 1
            round_started = time.perf_counter()
            terms_before = counters["store.terms_interned"]
            # After a retraction the closure is broken: one full-width
            # pass over the survivors (including facts the update just
            # added), then standard semi-naive pivots take over.
            full_pass = first_round and needs_repair
            try:
                matches, produced_rows, inserted = _execute_round(
                    store, prepared, round_number, control, full=full_pass
                )
            except _RoundInterrupt as stop:
                store.rollback()
                stats.record_round(
                    round=round_number,
                    aborted=True,
                    total_atoms=total,
                    seconds=round(time.perf_counter() - round_started, 6),
                )
                interrupted = stop.reason
                break
            first_round = False
            total += inserted
            dedup_hits = produced_rows - inserted
            counters["chase.rounds"] += 1
            counters["chase.matches"] += matches
            counters["chase.atoms_produced"] += inserted
            counters["chase.dedup_hits"] += dedup_hits
            counters["delta.rounds"] += 1
            if inserted:
                rounds_run = round_number
            else:
                terminated = True
            stats.record_round(
                round=round_number,
                matches=matches,
                atoms_produced=inserted,
                dedup_hits=dedup_hits,
                new_terms=counters["store.terms_interned"] - terms_before,
                total_atoms=total,
                seconds=round(time.perf_counter() - round_started, 6),
            )
            if full_pass:
                # The closure is whole again from here on; a crash in a
                # later round resumes like any suspended chase.
                store.set_meta("storechase.repair", "0", commit=False)
            _persist_state(store, rounds_run, terminated, stats, commit=False)
            _maybe_kill("storechase.kill", round_number)
            store.commit()
            if terminated:
                break
            if total > budget.max_atoms:
                if budget.on_exceeded == "raise":
                    raise ChaseBudgetExceeded(
                        f"store chase exceeded {budget.max_atoms} atoms "
                        f"after {rounds_run} rounds"
                    )
                break
        if interrupted is not None:
            note_interruption(stats, interrupted, budget, rounds_run)
        if deleted and terminated:
            # How much of the over-deleted cone came back: cone members
            # with an alternative derivation untouched by the retraction.
            rederived = 0
            for key in deleted:
                predicate, ids = parse_fact_key(key)
                table = store._tables.get(predicate)
                if table is None:
                    continue
                if predicate.arity == 0:
                    hit = store._select(
                        f"SELECT 1 FROM {table} LIMIT 1"
                    ).fetchone()
                else:
                    where = " AND ".join(
                        f"a{i} = ?" for i in range(predicate.arity)
                    )
                    hit = store._select(
                        f"SELECT 1 FROM {table} WHERE {where} LIMIT 1", ids
                    ).fetchone()
                if hit:
                    rederived += 1
            counters["delta.rederived"] += rederived

    return StoreChaseResult(
        store=store,
        rounds_run=rounds_run,
        terminated=terminated,
        atom_count=total,
        stats=stats,
    )
