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
* the chase state (theory, completed rounds, termination, and a
  snapshot of the counters and phase timers whose size does not grow
  with the run's history) is persisted in the store's meta table after
  every round, so a budget-stopped run is resumable from disk — by
  Observation 8 and Skolem-naming determinism the continuation is
  exact, not approximate;
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
import weakref
from dataclasses import dataclass

from .. import faults
from ..chase.engine import (
    CancellationToken,
    ChaseBudget,
    ChaseBudgetExceeded,
    _PreparedRule,
    _prepare_rules,
    _RoundInterrupt,
    _RunControl,
    note_interruption,
    universal_matches,
)
from ..chase.planner import CONTROL_CHECK_STRIDE
from ..logic.instance import Instance
from ..logic.serialize import dump_rule
from ..logic.tgd import Theory
from ..telemetry import Telemetry
from .sqlcompile import build_select
from .sqlite import SQLiteStore, fact_key, parse_fact_key

STORE_CHASE_SCHEMA = "repro-storechase/2"


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


# The parent key recorded for a fact produced by a bodyless rule: such
# a fact is derived (not base), yet no retraction can reach it.
_EMPTY_BODY = "true"


class _StoreRule:
    """A rule's SQL side in the store chase, for one call on one store.

    ``program`` is the rule's shared :class:`~repro.chase.planner.
    RuleProgram` (lowered once per ``Theory``) with its constants bound
    to this store's term ids; a sigma row is the body variables' values
    in the program's order, then the universal ones.  Built afresh by
    every :func:`chase_into_store` / :func:`update_store_chase` call, so
    a rolled-back round never leaves a stale constant id behind.
    """

    def __init__(self, prepared: _PreparedRule, store: SQLiteStore) -> None:
        program = prepared.program.bind(store.intern_term)
        self.program = program
        self.body = prepared.skolemized.rule.body
        self.body_vars = program.variables[
            : len(program.variables) - len(program.universal)
        ]
        self.plan = prepared.plan

    def bind_head(
        self, slots: tuple, ids: "tuple[int, ...]", store: SQLiteStore
    ) -> "dict[int, int] | None":
        """Sigma positions fixed by matching one head's slots to a fact row.

        A ``"v"`` slot binds its position (a repeated variable must
        agree), a ``"c"`` slot must equal the fact's id, and an ``"f"``
        slot must hold a Skolem term of its functor, whose child ids
        bind the slot's positions.  ``None`` when the fact does not
        match the head.
        """
        binding: dict[int, int] = {}
        for slot, term_id in zip(slots, ids):
            if slot[0] == "v":
                if binding.setdefault(slot[1], term_id) != term_id:
                    return None
            elif slot[0] == "c":
                if slot[1] != term_id:
                    return None
            else:
                parts = store.function_parts(term_id)
                if parts is None or parts[0] != slot[1]:
                    return None
                for index, child in zip(slot[2], parts[1]):
                    if binding.setdefault(index, child) != child:
                        return None
        return binding

    def probe(self, store: SQLiteStore, binding: "dict[int, int]"):
        """One body row agreeing with ``binding`` over the store, or ``None``."""
        if not self.body:
            return ()
        bound = {self.body_vars[index]: value for index, value in binding.items()}
        return next(self.select(store, limit_one=True, bound=bound), None)

    def parent_keys(self, row: tuple) -> "list[str]":
        """The body image of one sigma row, as fact keys.

        These are the (child, parent) support edges that
        ``update_store_chase`` walks to over-delete a retraction's cone.
        """
        keys = [
            fact_key(
                predicate,
                tuple(row[value] if is_var else value for is_var, value in slots),
            )
            for predicate, slots in self.program.patterns
        ]
        return keys or [_EMPTY_BODY]

    def select(self, store: SQLiteStore, **options):
        """Body rows (raw sigma tuples) under ``build_select`` options:
        per-alias ``round_bounds``, or ``bound`` columns and ``limit_one``."""
        compiled = build_select(
            self.body, self.body_vars, store, distinct=False, **options
        )
        if compiled is None:
            return  # a body predicate has no fact table yet
        counters = store.stats.counters
        for row in store._select(compiled.sql, compiled.params):
            counters["store.rows_scanned"] += 1
            yield row

    def sources(
        self, store: SQLiteStore, last: int, full: bool, domain, delta=None
    ):
        """This round's sigma rows, as a list of row iterables.

        ``full`` (the first round) evaluates the body over everything up
        to round ``last``; otherwise one semi-naive plan per pivot pins
        the pivot to ``last``, atoms before it to strictly older rounds
        and atoms after it to ``<= last``, so each delta-touching sigma
        comes up exactly once.  A pivot whose predicate is not in ``delta`` (the
        predicates with rows tagged ``last``; ``None`` when unknown)
        cannot match and is skipped (``plan.pivots_skipped``).  Rules
        with universal variables extend the rows through
        :func:`~repro.chase.engine.universal_matches` over ``domain``
        (see :func:`_domain`).
        """
        width = len(self.body)
        everything = [("le", last)] * width
        if full:
            plans = [everything]
        else:
            pivots = [
                pivot
                for pivot in range(width)
                if delta is None or self.body[pivot].predicate in delta
            ]
            store.stats.counters["plan.pivots_skipped"] += width - len(pivots)
            plans = [
                [("lt", last)] * pivot
                + [("eq", last)]
                + [("le", last)] * (width - pivot - 1)
                for pivot in pivots
            ]
        if width:
            sources = [self.select(store, round_bounds=bounds) for bounds in plans]
        else:  # an empty body has one empty match, in a full round only
            sources = [((),)] if full else []
        if not self.plan.universal:
            return sources
        pool, delta_pool, old_pool = domain
        paired = universal_matches(
            len(self.plan.universal),
            itertools.chain.from_iterable(sources),
            lambda: self.select(store, round_bounds=everything) if width else ((),),
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


_THEORY_TEXT: "weakref.WeakKeyDictionary[Theory, str]" = weakref.WeakKeyDictionary()


def _theory_text(theory: Theory) -> str:
    """Canonical rule text for state matching: one rule a line, no name header.

    :func:`~repro.logic.serialize.dump_rule` carries no labels and quotes
    constants, so a theory reparsed from this text (labels regenerated)
    is the same theory and serializes back to the same string — resume
    matching survives the round-trip.  Computed once per ``Theory``.
    """
    text = _THEORY_TEXT.get(theory)
    if text is None:
        text = "\n".join(dump_rule(rule) for rule in theory) + "\n"
        _THEORY_TEXT[theory] = text
    return text


def _persist_state(
    store: SQLiteStore,
    rounds: int,
    terminated: bool,
    stats: Telemetry,
    commit: bool = True,
) -> None:
    store.set_meta("storechase.rounds", str(rounds), commit=False)
    store.set_meta("storechase.terminated", "1" if terminated else "0", commit=False)
    # Counters and phases only: the per-round records stay in memory, so
    # the snapshot's size does not grow with the collector's history.
    store.set_meta(
        "storechase.stats", json.dumps(stats.as_dict(rounds=False)), commit=False
    )
    if commit:
        store.commit()


def _maybe_kill(name: str, round_: int) -> None:
    """Fault hook: die without ceremony, as a crashed process would.

    ``storechase.kill`` fires just before the round commit (and before
    the commit of an update's deletion transaction, at the update's
    epoch), ``storechase.kill_midround`` during row inserts — both must
    leave a database that resumes to the exact fixpoint (the chaos suite
    checks digests and counters across the kill).
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
    rules: "list[_StoreRule]",
    round_number: int,
    control: "_RunControl | None",
    full: bool,
    delta: "set | None",
) -> "tuple[int, int, int, set]":
    """One store round's trigger matching and batched inserts.

    Returns ``(matches, produced_rows, inserted, fresh)``, ``fresh`` the
    predicates that gained rows (the next round's ``delta``).  Produced
    facts land at round tag ``round_number``; every *genuinely new* row
    also records its (child, parent) support edges — flushed alongside
    the fact batches, inside the same per-round transaction — which is
    the provenance :func:`update_store_chase` walks for DRed
    over-deletion.  Rows whose fact already exists are filtered out of
    the support batch first (:func:`_filter_existing_supports`), so base
    facts never acquire edges and never enter the deletion cascade.

    ``full`` selects full-width evaluation (see :meth:`_StoreRule.sources`)
    — the first chase round — over the standard semi-naive pivots.
    ``delta`` holds the predicates with rows tagged ``round_number - 1``
    (``None`` when unknown): a semi-naive round skips every rule with no
    body predicate in it (``plan.rules_skipped``), as the in-memory
    planner does; universal rules, gated on new domain terms instead,
    always run.
    Raises :class:`~repro.chase.engine._RoundInterrupt` on deadline or
    cancellation, leaving the partial round uncommitted.
    """
    batch_size = store.batch_size
    stride = CONTROL_CHECK_STRIDE - 1
    last = round_number - 1
    domain = (
        _domain(store, last) if any(rule.plan.universal for rule in rules) else None
    )
    matches = 0
    produced_rows = 0
    inserted = 0
    fresh: set = set()
    supports: "list[tuple[str, str]]" = []
    counters = store.stats.counters

    def flush(pending: dict) -> int:
        _filter_existing_supports(store, supports)
        new_rows = 0
        for predicate, rows in pending.items():
            added = store.insert_rows(predicate, rows, round_number)
            if added:
                fresh.add(predicate)
                new_rows += added
        pending.clear()
        store.add_supports(supports)
        supports.clear()
        return new_rows

    for rule in rules:
        if control is not None:
            reason = control.interruption()
            if reason is not None:
                raise _RoundInterrupt(reason)
        if (
            not full
            and delta is not None
            and not rule.plan.universal
            and not rule.plan.body_predicates & delta
        ):
            counters["plan.rules_skipped"] += 1
            continue
        head_rows = rule.program.head_rows
        for source in rule.sources(store, last, full, domain, delta):
            pending: dict = {}
            pending_rows = 0
            for row in source:
                matches += 1
                if control is not None and not (matches & stride):
                    reason = control.interruption()
                    if reason is not None:
                        raise _RoundInterrupt(reason)
                parents = rule.parent_keys(row)
                for predicate, ids in head_rows(row, store.intern_function):
                    produced_rows += 1
                    pending.setdefault(predicate, []).append(ids)
                    pending_rows += 1
                    child = fact_key(predicate, ids)
                    supports.extend((child, parent) for parent in parents)
                if pending_rows >= batch_size:
                    inserted += flush(pending)
                    pending_rows = 0
                    _maybe_kill("storechase.kill_midround", round_number)
            if pending:
                inserted += flush(pending)
                _maybe_kill("storechase.kill_midround", round_number)
    return matches, produced_rows, inserted, fresh


def _run_store_rounds(
    store: SQLiteStore,
    rules: "list[_StoreRule]",
    rounds_run: int,
    total: int,
    budget: ChaseBudget,
    cancel: "CancellationToken | None",
    full: bool,
    delta: "set | None",
    on_round=None,
) -> StoreChaseResult:
    """Store rounds after round ``rounds_run`` until a fixpoint or the budget.

    ``full`` selects full-width evaluation for the first round only (see
    :func:`_execute_round`); ``delta`` is the predicates the last
    committed round added to (``None`` when unknown).  Each completed
    round's facts and ``storechase.*`` state commit as ONE transaction —
    the SIGKILL-atomicity the chaos suite pins — and ``on_round``, given
    whether the round reached the fixpoint, runs just before that
    commit.  An interrupted round is rolled back.
    """
    stats = store.stats
    counters = stats.counters
    control = _RunControl.start(budget, cancel)
    interrupted: "str | None" = None
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
        try:
            matches, produced_rows, inserted, delta = _execute_round(
                store, rules, round_number, control, full=full, delta=delta
            )
        except _RoundInterrupt as stop:
            # Abandon the round wholesale: rows inserted so far are
            # rolled back, so disk holds exactly the last complete round
            # (Observation 8 makes the re-run exact).
            store.rollback()
            stats.record_round(
                round=round_number,
                aborted=True,
                total_atoms=total,
                seconds=round(time.perf_counter() - round_started, 6),
            )
            interrupted = stop.reason
            break
        full = False
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
        if on_round is not None:
            on_round(terminated)
        stats.record_round(
            round=round_number,
            matches=matches,
            atoms_produced=inserted,
            dedup_hits=dedup_hits,
            new_terms=counters["store.terms_interned"] - terms_before,
            total_atoms=total,
            seconds=round(time.perf_counter() - round_started, 6),
        )
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
    return StoreChaseResult(store, rounds_run, terminated, total, stats)


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
        if store.get_meta("storechase.theory", "") != theory_text:
            raise StoreChaseError(
                "store was chased under a different theory; refusing to mix"
            )
        if base is not None:
            raise StoreChaseError(
                "resuming a store chase: base is already persisted, pass None"
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
        # reports the same counters as one uninterrupted run (per-round
        # records are not persisted).  A same-connection resume already
        # holds them live (chase.rounds > 0) and must not double-count.
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
            store._insert_atoms(base, 0)
        store.set_meta("storechase.schema", STORE_CHASE_SCHEMA, commit=False)
        store.set_meta("storechase.theory", theory_text, commit=False)
        rounds_run = 0
        terminated = False
        _persist_state(store, rounds_run, terminated, stats, commit=False)
        store.commit()
        total = len(store)

    rules = [_StoreRule(prepared, store) for prepared in _prepare_rules(theory)]
    with stats.timer("chase"):
        # The predicates the last round added to are unknown on entry, so
        # a resumed first round evaluates every pivot.
        return _run_store_rounds(
            store, rules, rounds_run, total, budget, cancel, rounds_run == 0, None
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


def _rederive_cone(
    store: SQLiteStore,
    rules: "list[_StoreRule]",
    deleted: "set[str]",
    epoch: int,
) -> set:
    """Bring back the cone facts with a derivation over the survivors.

    The store counterpart of :func:`repro.incremental._rederive`: one
    head-bound probe per (cone fact, rule head it matches) — the head
    fixes the rule's frontier (:meth:`_StoreRule.bind_head`), and one
    ``SELECT … LIMIT 1`` of the body with those columns bound searches
    the survivors plus the new base.  Hits land at round tag ``epoch``
    with their support edges, inside the caller's open transaction.
    Probes run before any hit is inserted, so they see exactly the
    survivors and the new base.  Returns the predicates of the hits.
    """
    heads: dict = {}
    for rule in rules:
        for predicate, slots in rule.program.heads:
            heads.setdefault(predicate, []).append((rule, slots))
    counters = store.stats.counters
    found: dict = {}
    supports: "list[tuple[str, str]]" = []
    for key in deleted:
        predicate, ids = parse_fact_key(key)
        for rule, slots in heads.get(predicate, ()):
            binding = rule.bind_head(slots, ids, store)
            if binding is None:
                continue
            counters["delta.rederive_probes"] += 1
            row = rule.probe(store, binding)
            if row is not None:
                found.setdefault(predicate, []).append(ids)
                supports.extend((key, parent) for parent in rule.parent_keys(row))
                break
    _filter_existing_supports(store, supports)
    for predicate, rows in found.items():
        store.insert_rows(predicate, rows, epoch)
    store.add_supports(supports)
    return set(found)


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
    with the facts living only in SQLite, doing work proportional to the
    change rather than to the fixpoint:

    * **retractions** delete the retracted rows plus their transitive
      support cone (walked over ``repro_supports``; facts without
      support edges — round-0 facts, update-added facts, promoted facts
      — are never cascaded into), then probe each cone fact
      (:func:`_rederive_cone`): a head-bound ``SELECT … LIMIT 1`` of
      each rule body whose head matches it, over the survivors plus the
      new base.  The hits come back at the update's epoch round tag,
      with the new base facts;
    * **additions** insert the new facts at that epoch tag — by
      Observation 8 and Skolem determinism semi-naive rounds from there
      derive exactly the missing consequences.  An added fact the chase
      had already derived is *promoted* to base (its support edges are
      dropped so retractions elsewhere can no longer cascade through
      it, this update's included).

    The deletion, the probe hits, the base changes and the updated
    ``storechase.*`` state commit as one transaction; semi-naive rounds
    seeded by the epoch's facts then follow, each committed like a
    chase round, so a crash in them resumes with
    :func:`resume_store_chase`.  With no seed no round runs.  The final
    content digest equals clearing the store and re-chasing the updated
    base from scratch.

    Raises :class:`StoreChaseError` for missing/unterminated/foreign
    chase state (a store written under another ``storechase.schema``
    included); ``ValueError`` — as
    :func:`repro.incremental.incremental_update` does — for
    retracting a derived fact (bodyless-rule productions included),
    retracting under a theory with universal head variables, or adding
    and retracting the same fact.  A fact listed twice counts once.
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
    elif store.get_meta("storechase.theory", "") != _theory_text(theory):
        raise StoreChaseError(
            "store was chased under a different theory; refusing to mix"
        )
    if store.get_meta("storechase.terminated") != "1":
        raise StoreChaseError(
            "store chase is not at a fixpoint; resume_store_chase first"
        )
    add = list(dict.fromkeys(add))
    retract = list(dict.fromkeys(retract))
    overlap = {item for item in add if item in retract}
    if overlap:
        raise ValueError(
            f"facts both added and retracted: {sorted(map(str, overlap))}"
        )

    rounds_run = int(store.get_meta("storechase.rounds", "0"))
    epoch = rounds_run + 1

    with stats.timer("delta"):
        # ---- resolve the update against the stored facts -------------
        removed_keys: "list[str]" = []
        for item in retract:
            ids = store._row_of(item)
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
        to_insert = []
        promoted_keys = set()
        for item in add:
            ids = store._row_of(item)
            if ids is None or item not in store:
                to_insert.append(item)
                continue
            key = fact_key(item.predicate, ids)
            if store.has_support(key):
                promoted_keys.add(key)

        if not removed_keys and not to_insert and not promoted_keys:
            counters["delta.noops"] += 1
            return StoreChaseResult(store, rounds_run, True, len(store), stats)
        counters["delta.updates"] += 1
        counters["delta.added_base"] += len(to_insert) + len(promoted_keys)
        counters["delta.retracted_base"] += len(removed_keys)

        # ---- ONE transaction: cone deletion, base changes, probe hits
        # and state (reads never commit, so nothing below lands early) --
        rules = [_StoreRule(prepared, store) for prepared in _prepare_rules(theory)]
        deleted: "set[str]" = set()
        if removed_keys:
            deleted = set(removed_keys)
            frontier = list(deleted)
            while frontier:
                children = store.support_children(frontier)
                # Promoted facts are base from this update on: like the
                # in-memory cone, the walk never enters them.
                frontier = [
                    key
                    for key in children
                    if key not in deleted and key not in promoted_keys
                ]
                deleted.update(frontier)
            store.delete_fact_rows(deleted)
            store.delete_supports_of(deleted)
            counters["delta.overdeleted"] += len(deleted) - len(removed_keys)
        if promoted_keys:
            store.delete_supports_of(promoted_keys)
        store._insert_atoms(to_insert, epoch)
        delta = {item.predicate for item in to_insert}
        if deleted:
            delta |= _rederive_cone(store, rules, deleted, epoch)
        terminated = not delta

        def count_rederived() -> None:
            # How much of the over-deleted cone came back: the probe hits
            # plus cone members the seeded rounds derived again.  Counted
            # before the final commit, so the persisted counters hold it.
            if deleted:
                counters["delta.rederived"] += len(
                    store.existing_fact_keys(deleted)
                )

        if terminated:
            count_rederived()
        _persist_state(store, epoch, terminated, stats, commit=False)
        _maybe_kill("storechase.kill", epoch)
        store.commit()
        total = len(store)
        if terminated:
            return StoreChaseResult(store, epoch, True, total, stats)

        def on_round(done: bool) -> None:
            counters["delta.rounds"] += 1
            if done:
                count_rederived()

        # ---- semi-naive rounds seeded by the epoch's facts -----------
        return _run_store_rounds(
            store, rules, epoch, total, budget, cancel, False, delta, on_round
        )
