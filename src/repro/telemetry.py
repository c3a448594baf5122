"""Zero-dependency observability for the chase and rewriting engines.

Every long-running engine in this repository (the semi-oblivious chase,
the homomorphism search underneath it, rewriting saturation) carries a
:class:`Telemetry` object: a bag of integer counters, monotonic phase
timers, per-round records and optional event hooks.  The goal is to make
budget blow-ups *explainable* — when a chase truncates or a rewriting
marks itself incomplete, the stats say which round, which rule shape and
which index buckets ate the time.

Design constraints:

* **Cheap on the hot path.**  Counters are plain dict increments; the
  homomorphism search takes ``telemetry=None`` and skips all accounting
  behind a single ``is not None`` check, so un-instrumented callers pay
  one branch per search node.
* **JSON all the way down.**  :meth:`Telemetry.as_dict` emits plain
  dicts/lists/numbers only, so CLI ``--json`` output and the
  ``benchmarks/out/*.json`` trajectories serialize without adapters.
  :func:`validate_stats_dict` is the schema check the CI smoke run (and
  the bench harness tests) assert against.
* **Engine-agnostic naming.**  Counter names are dotted
  ``<subsystem>.<metric>`` strings (``chase.matches``,
  ``hom.backtrack_clashes``, ``rewrite.subsumption_checks``); engines own
  their prefix, nothing registers anything centrally.

The conventional counters (see ``docs/architecture.md`` §6 for the full
table):

``chase.rounds / chase.matches / chase.atoms_produced / chase.dedup_hits``
    per-run totals of the round loop;
``plan.rules_skipped / plan.pivots_skipped / plan.plans_reused /
plan.nodes_saved``
    effect of the join planner: delta-relevance rule skips, pivot
    searches avoided, searches run under a precomputed static order;
``hom.nodes / hom.candidates_estimated / hom.candidates_scanned /
hom.backtrack_clashes``
    search effort of the backtracking join, including the index-bucket
    size estimates versus the facts actually scanned;
``rewrite.steps / rewrite.produced / rewrite.kept / rewrite.evicted /
rewrite.subsumption_checks / rewrite.queue_peak``
    saturation effort of the piece-rewriting engine;
``rewrite.dedup_hits / rewrite.subsumption_skipped /
rewrite.rules_skipped / rewrite.subsumed_dropped /
rewrite.oversize_dropped / rewrite.evicted_while_queued``
    the rewriting fast path (``docs/performance.md`` §5): produced CQs
    absorbed by canonical-key dedup, kept candidates the inverted
    predicate index excluded without a containment search, rules pruned
    by head-predicate relevance, produced CQs dropped as subsumed or
    oversize, and frontier entries evicted before their turn;
``session.rewrite_cache_hits / session.rewrite_cache_misses /
session.chase_cache_hits / session.chase_cache_misses``
    ``OMQASession`` cache outcomes — rewritings per query shape, chases
    per instance content — in the session's aggregated stats (the one
    source ``cache_info()`` and ``--stats`` read); under concurrent callers the rewrite
    counters also certify single-flight compilation (one miss per
    shape, racing requests counted as hits);
``session.columnar_load_hits / session.columnar_load_misses /
session.columnar_delta_hits / session.sql_load_hits /
session.sql_load_misses``
    ``OMQASession`` store-load outcomes for the ``columnar`` and ``sql``
    strategies: a hit reuses the loaded store (the instance digest
    matched), a miss (the first load, or changed content) reloads it,
    and a columnar delta hit moves the store by the recorded
    ``add_facts``/``retract_facts`` steps instead of reloading;
``session.sql_compile_hits / session.sql_compile_misses``
    ``OMQASession`` compiled-SQL cache outcomes per query shape;
    ``cache_info()`` reads every hit and miss it reports from these
    ``session.*`` counters;
``service.requests / service.responses_2xx / service.responses_4xx /
service.responses_5xx / service.theories / service.uploads /
service.appends / service.retracts / service.queries /
service.deadline_timeouts``
    the HTTP service (:mod:`repro.service`, see ``docs/service.md``):
    requests parsed, responses by status class, theories registered,
    write traffic by kind, queries answered, and requests cut off by
    the per-request deadline — all mutated on the event loop only and
    serialized by ``GET /metrics`` next to each theory's engine
    counters;
``delta.updates / delta.noops / delta.added_base /
delta.retracted_base / delta.overdeleted / delta.rederived /
delta.rederive_probes / delta.rounds``
    incremental maintenance (:mod:`repro.incremental`, see
    ``docs/incremental.md``): update calls that changed the base versus
    no-ops, base facts added and retracted, atoms over-deleted beyond
    the retraction itself (the DRed cone), cone members re-derived from
    surviving facts, head-bound re-derive probes run over the cone (one
    body search per cone atom and rule head it matches; in memory a
    homomorphism search, in the store one ``SELECT … LIMIT 1``), and
    chase rounds executed (the semi-naive rounds seeded by added facts
    and probe hits, none when there is no seed);
``store.writes / store.batches / store.sql_queries / store.rows_scanned /
store.terms_interned``
    the storage subsystem (``repro.storage``): facts submitted to a
    store, write-buffer flushes, SELECT statements executed (compiled
    rewritings and store-chase rounds included), result rows fetched
    back into Python, and term-dictionary inserts;
``chase.deadline_hit / chase.cancelled / store.lock_retries``
    the fault-tolerance layer (see ``docs/robustness.md``): runs stopped
    by ``ChaseBudget.deadline_s``, runs stopped by a
    :class:`~repro.chase.CancellationToken`, and ``database is locked``
    statements retried with backoff; ``<name>.interrupted`` marks a
    :meth:`Telemetry.timer` block that unwound with an exception.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# An event hook receives (event name, payload); payloads are the same
# plain dicts that end up in ``as_dict()["rounds"]``.
Hook = Callable[[str, dict], None]


class Telemetry:
    """Counters + phase timers + per-round records + event hooks."""

    __slots__ = ("counters", "phases", "rounds", "hooks")

    def __init__(self, hooks: Iterator[Hook] | tuple[Hook, ...] = ()) -> None:
        self.counters: Counter[str] = Counter()
        self.phases: dict[str, float] = {}
        self.rounds: list[dict[str, Any]] = []
        self.hooks: list[Hook] = list(hooks)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Bump a counter (dotted ``subsystem.metric`` name)."""
        self.counters[name] += amount

    def gauge_max(self, name: str, value: int) -> None:
        """Track the maximum a quantity reaches (e.g. queue length)."""
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall time under ``name`` (monotonic clock)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Like :meth:`phase`, but exception unwinds are first-class.

        The elapsed time is recorded even when the timed block raises —
        a deadline or cancellation unwinding through an engine must not
        lose the phase's wall time — and the unwind itself is marked by
        bumping the ``<name>.interrupted`` counter, so an aborted run is
        distinguishable from a clean one in the exported stats.  The
        engines wrap their run loops in ``timer`` for exactly this
        reason (``ChaseBudget(deadline_s=..., on_exceeded='raise')``
        still yields a ``chase`` phase covering the partial run).
        """
        started = time.perf_counter()
        try:
            yield
        except BaseException:
            self.counters[f"{name}.interrupted"] += 1
            raise
        finally:
            elapsed = time.perf_counter() - started
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def record_round(self, **fields: Any) -> dict[str, Any]:
        """Append one per-round record and notify hooks with it."""
        entry = dict(fields)
        self.rounds.append(entry)
        self.emit("round", entry)
        return entry

    def emit(self, event: str, payload: dict[str, Any]) -> None:
        for hook in self.hooks:
            hook(event, payload)

    # ------------------------------------------------------------------
    # Aggregation / export
    # ------------------------------------------------------------------
    def fork(self) -> "Telemetry":
        """A copy to continue from (``resume`` seeds its stats this way).

        The copy shares the hooks but owns its counters and records, so
        the original run's stats stay immutable history.
        """
        copy = Telemetry(tuple(self.hooks))
        copy.counters = Counter(self.counters)
        copy.phases = dict(self.phases)
        copy.rounds = [dict(entry) for entry in self.rounds]
        return copy

    def merge(self, other: "Telemetry") -> None:
        """Fold another run's stats into this one (session aggregation)."""
        self.counters.update(other.counters)
        for name, seconds in other.phases.items():
            self.phases[name] = self.phases.get(name, 0.0) + seconds
        self.rounds.extend(dict(entry) for entry in other.rounds)

    def as_dict(self, rounds: bool = True) -> dict[str, Any]:
        """A JSON-ready snapshot (sorted counters, rounded timings).

        ``rounds=False`` leaves the per-round records out (an empty
        list), so the snapshot's size does not grow with the history.
        """
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "phases": {
                name: round(seconds, 6) for name, seconds in sorted(self.phases.items())
            },
            "rounds": [dict(entry) for entry in self.rounds] if rounds else [],
        }

    @classmethod
    def from_dict(cls, stats: dict[str, Any]) -> "Telemetry":
        """Rebuild a collector from an :meth:`as_dict` snapshot.

        The store-backed chase (:mod:`repro.storage.chasestore`)
        persists a run's counters and phases (``as_dict(rounds=False)``,
        a snapshot of bounded size) and restores them here, so a chase
        resumed from another connection continues its counters exactly
        as one uninterrupted run; per-round records are not persisted.
        Validates the input via :func:`validate_stats_dict` first.
        """
        validate_stats_dict(stats)
        restored = cls()
        restored.counters.update(stats["counters"])
        restored.phases.update(stats["phases"])
        restored.rounds.extend(dict(entry) for entry in stats["rounds"])
        return restored

    def __repr__(self) -> str:
        return (
            f"Telemetry({len(self.counters)} counters, "
            f"{len(self.phases)} phases, {len(self.rounds)} rounds)"
        )


def validate_stats_dict(stats: Any) -> None:
    """Assert that ``stats`` matches the stats JSON schema.

    Raises ``ValueError`` describing the first violation.  The schema is
    deliberately tiny — three keys, scalar leaves — so every emitter
    (``ChaseResult.stats``, ``RewritingResult.stats``, CLI ``--json``,
    ``benchmarks/out/*.json``) can be checked by the same function.
    """
    if not isinstance(stats, dict):
        raise ValueError(f"stats must be a dict, got {type(stats).__name__}")
    missing = {"counters", "phases", "rounds"} - set(stats)
    if missing:
        raise ValueError(f"stats dict missing keys: {sorted(missing)}")
    counters = stats["counters"]
    if not isinstance(counters, dict) or not all(
        isinstance(name, str) and isinstance(value, int)
        for name, value in counters.items()
    ):
        raise ValueError("stats['counters'] must map str -> int")
    phases = stats["phases"]
    if not isinstance(phases, dict) or not all(
        isinstance(name, str) and isinstance(value, (int, float))
        for name, value in phases.items()
    ):
        raise ValueError("stats['phases'] must map str -> seconds")
    rounds = stats["rounds"]
    if not isinstance(rounds, list) or not all(
        isinstance(entry, dict)
        and all(isinstance(key, str) for key in entry)
        and all(isinstance(value, (int, float, bool)) for value in entry.values())
        for entry in rounds
    ):
        raise ValueError("stats['rounds'] must be a list of flat numeric records")
