"""Benchmark regression guard: canonical ``BENCH_*.json`` runs + comparison.

The experiment benches under ``benchmarks/`` measure *shapes* (doubling
series, locality defects); this module is the *trajectory* side: a fixed
set of guard scenarios — mirroring ``bench_e1_doubling``,
``bench_e5_tc_cycles`` and ``bench_micro_core_ops`` at their default
sizes, plus equivalence tripwires pinning each alternative engine to
its reference — is timed into a canonical JSON document (see
:func:`repro.bench.reporting.validate_bench_document` for the schema) and
compared against a committed baseline.

Two design points keep the comparison honest across machines:

* **Calibration.**  Every run times a fixed pure-Python spin loop and the
  comparison works on *calibration-normalized* seconds, so a uniformly
  slower CI runner does not read as a regression (and a faster one does
  not mask a real regression).
* **Value checksums.**  Each scenario returns a JSON-able value derived
  from the computed results (atom counts, disjunct counts, answer
  counts).  The guard fails when a value drifts from the baseline: a perf
  "win" that changes what the engine computes is a bug, not a win.

The CLI front-end is ``python -m repro bench-guard`` (see
:mod:`repro.cli`); CI runs it in ``--quick`` mode against
``benchmarks/baselines/BENCH_guard_quick.json``.  Refresh workflow: rerun
with ``--update`` on the reference hardware and commit the rewritten
baseline together with the change that moved the numbers.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .reporting import Table, bench_document, validate_bench_document

DEFAULT_TOLERANCE = 0.25
_CALIBRATION_LOOP = 1_500_000


@dataclass(frozen=True)
class Scenario:
    """One guard workload: a named callable returning a checksum value.

    ``run`` receives ``quick`` and must be deterministic: the returned
    value is compared against the baseline to catch semantic drift.
    """

    name: str
    description: str
    run: Callable[[bool], Any]


def _run_e1_doubling(quick: bool) -> list[int]:
    """Mirror of ``bench_e1_doubling``: the five-operation process per n."""
    from ..frontier.process import run_process
    from ..frontier.td import phi_r_n

    depths = (1, 2, 3) if quick else (1, 2, 3, 4)
    counts: list[int] = []
    for depth in depths:
        result = run_process(phi_r_n(depth))
        counts.append(len(result.rewriting()))
    return counts


def _run_e5_tc_cycles(quick: bool) -> list[list[int]]:
    """Mirror of ``bench_e5_tc_cycles``: locality defects on E-cycles."""
    from ..chase import ChaseBudget, chase
    from ..frontier import locality_defect, min_support_size
    from ..workloads import edge_cycle, example42_tc

    theory = example42_tc()
    lengths = (3, 4) if quick else (3, 4, 5)
    rows: list[list[int]] = []
    for length in lengths:
        cycle = edge_cycle(length)
        defect = locality_defect(theory, cycle, bound=length - 1, depth=length)
        run = chase(
            theory, cycle, budget=ChaseBudget(max_rounds=length, max_atoms=300_000)
        )
        worst = 0
        for item in sorted(run.round_added[length], key=repr):
            support = min_support_size(theory, cycle, item, depth=length + 1)
            worst = max(worst, support or 0)
        rows.append([length, len(defect.missing), worst, len(run.instance)])
    return rows


def _run_micro_core_ops(quick: bool) -> list[int]:
    """Mirror of ``bench_micro_core_ops``: the hot inner operations."""
    from ..chase import ChaseBudget, chase, resume
    from ..frontier.process import run_process
    from ..frontier.td import phi_r_n
    from ..logic import evaluate, parse_query
    from ..logic.containment import is_contained_in
    from ..workloads import (
        green_path,
        t_d,
        university_database,
        university_ontology,
    )

    repeats = 2 if quick else 5
    database = university_database(students=120, professors=20, courses=40, seed=13)
    query = parse_query(
        "q(x) := exists c, p. EnrolledIn(x, c), TaughtBy(c, p), Professor(p)"
    )
    for _ in range(repeats):
        answers = evaluate(query, database)
    ontology = university_ontology()
    prefix = chase(
        ontology, database, budget=ChaseBudget(max_rounds=1, max_atoms=100_000)
    )
    for _ in range(repeats):
        resumed = resume(prefix, 1, budget=ChaseBudget(max_atoms=100_000))
    big = parse_query("q(x) := exists a, b, c. E(x, a), E(a, b), E(b, c), E(c, x)")
    small = parse_query("q(x) := exists a. E(x, a)")
    contained = 0
    for _ in range(repeats):
        contained += int(is_contained_in(big, small))
    td_run = chase(
        t_d(), green_path(3), budget=ChaseBudget(max_rounds=3, max_atoms=100_000)
    )
    process = run_process(phi_r_n(2))
    return [
        len(answers),
        len(resumed.instance),
        contained,
        len(td_run.instance),
        len(process.survivors),
    ]


_LAST_COLUMNAR: dict | None = None


def _run_columnar_equivalence(quick: bool) -> dict:
    """Columnar kernel == object engine tripwire on a dense join workload.

    Chases binary transitive closure over a seeded dense random edge set
    twice — ``backend="memory"`` (the object engine) and
    ``backend="columnar"`` (hash joins over interned ids) — and
    checksums both results.  Dense TC is the workload the kernel exists
    for: matches outnumber new atoms by two orders of magnitude, so the
    run is dominated by join candidate scans and duplicate checks, which
    the kernel does over flat int tuples.  The compared ``value``
    carries the atom count, a round-for-round equality bit, a *counter*
    equality bit (the kernel mirrors the engine's pivot semantics, so
    ``chase.matches``/``chase.atoms_produced``/``chase.dedup_hits`` must
    agree exactly, not just the atoms) and a content checksum.  The
    measured speedup is hardware-dependent, so it lands in
    ``meta["columnar"]`` rather than the compared value.
    """
    import hashlib

    from ..logic import parse_theory
    from ..chase import ChaseBudget, chase
    from ..workloads.generators import random_instance

    global _LAST_COLUMNAR
    theory = parse_theory("E(x, y), E(y, z) -> E(x, z)", name="guard-tc")
    predicates = sorted(
        {atom.predicate for rule in theory.rules() for atom in rule.body},
        key=lambda item: item.name,
    )
    facts, domain = (80, 24) if quick else (160, 40)
    base = random_instance(
        predicates, fact_count=facts, domain_size=domain, seed=20260808
    )
    budget = ChaseBudget(max_rounds=20, max_atoms=2_000_000)
    started = time.perf_counter()
    reference = chase(theory, base, budget=budget, backend="memory")
    object_seconds = time.perf_counter() - started
    started = time.perf_counter()
    columnar = chase(theory, base, budget=budget, backend="columnar")
    columnar_seconds = time.perf_counter() - started
    identical = columnar.round_added == reference.round_added
    counters_equal = all(
        columnar.stats.counters[name] == reference.stats.counters[name]
        for name in ("chase.matches", "chase.atoms_produced", "chase.dedup_hits")
    )
    digest = hashlib.sha256(
        "\n".join(sorted(repr(item) for item in columnar.instance)).encode("utf8")
    ).hexdigest()[:16]
    _LAST_COLUMNAR = {
        "object_seconds": round(object_seconds, 6),
        "columnar_seconds": round(columnar_seconds, 6),
        "speedup": (
            round(object_seconds / columnar_seconds, 3) if columnar_seconds else 0.0
        ),
    }
    return {
        "atoms": len(columnar.instance),
        "identical": identical,
        "counters_equal": counters_equal,
        "checksum": digest,
    }


_LAST_STORAGE: dict | None = None


def _run_sql_equivalence(quick: bool) -> dict:
    """SQLite-evaluated answers == in-memory answers, e1/e5 workloads.

    Three equalities, each a baseline-compared bit:

    * **e1** — the Theorem-5B process rewriting of ``phi_r_n`` evaluated
      over a green path, once by the in-memory homomorphism engine and
      once compiled to SQL (:mod:`repro.storage.sqlcompile`);
    * **e5** — the ``T_c`` chase over an E-cycle run in RAM and run
      *inside* the store (:func:`repro.storage.chasestore.chase_into_store`),
      compared by content digest, then queried both ways over the
      materialized facts;
    * **certain** — end-to-end ``answer(backend="memory")`` versus
      ``answer(backend="sqlite")`` on a linear theory over the cycle.

    Wall-clock splits and ``store.*`` counters are hardware-dependent, so
    they land in ``meta["storage"]`` (mirroring ``meta["columnar"]``)
    rather than in the compared value.
    """
    from ..chase import ChaseBudget, chase
    from ..frontier.process import run_process
    from ..frontier.td import phi_r_n
    from ..logic import evaluate, parse_query, parse_theory
    from ..logic.containment import evaluate_ucq
    from ..storage import (
        SQLiteStore,
        chase_into_store,
        content_digest,
        evaluate_ucq_sql,
    )
    from ..rewriting import answer
    from ..workloads import edge_cycle, example42_tc, green_path

    global _LAST_STORAGE
    # e1: the process rewriting as a UCQ over a base instance.
    depth = 2 if quick else 3
    ucq = run_process(phi_r_n(depth)).rewriting()
    path = green_path(8 if quick else 12)
    started = time.perf_counter()
    memory_answers = evaluate_ucq(ucq, path)
    e1_memory_seconds = time.perf_counter() - started
    with SQLiteStore(":memory:") as store:
        store.add_many(path)
        started = time.perf_counter()
        sql_answers = evaluate_ucq_sql(ucq, store)
        e1_sql_seconds = time.perf_counter() - started
        e1 = {
            "answers": len(sql_answers),
            "equal": memory_answers == sql_answers,
            "digest_match": store.digest() == content_digest(path),
        }

    # e5: the T_c chase in RAM versus inside the store, digest-compared.
    theory = example42_tc()
    length, rounds = (12, 5) if quick else (24, 8)
    cycle = edge_cycle(length)
    budget = ChaseBudget(max_rounds=rounds, max_atoms=500_000)
    started = time.perf_counter()
    reference = chase(theory, cycle, budget=budget)
    e5_memory_seconds = time.perf_counter() - started
    probe = parse_query("q(x, y) := exists x1, y1. R(x, y, x1, y1)")
    with SQLiteStore(":memory:") as store:
        started = time.perf_counter()
        outcome = chase_into_store(theory, cycle, store, budget=budget)
        e5_store_seconds = time.perf_counter() - started
        memory_probe = evaluate(probe, reference.instance)
        sql_probe = evaluate_ucq_sql(probe, store)
        e5 = {
            "atoms": outcome.atom_count,
            "digest_match": outcome.digest() == content_digest(reference.instance),
            "answers": len(sql_probe),
            "equal": memory_probe == sql_probe,
        }
        store_counters = {
            name: store.stats.counters[name]
            for name in sorted(store.stats.counters)
            if name.startswith("store.")
        }

    # certain answers end to end, both backends.
    linear = parse_theory(
        "E(x, y) -> exists z. E(y, z)\nE(x, y) -> R(x, y)", name="guard-linear"
    )
    certain_query = parse_query("q(u) := R('a0', u)")
    by_memory = answer(linear, certain_query, cycle, backend="memory")
    by_sqlite = answer(linear, certain_query, cycle, backend="sqlite")
    certain = {"answers": len(by_sqlite), "equal": by_memory == by_sqlite}

    _LAST_STORAGE = {
        "e1_memory_seconds": round(e1_memory_seconds, 6),
        "e1_sql_seconds": round(e1_sql_seconds, 6),
        "e5_memory_seconds": round(e5_memory_seconds, 6),
        "e5_store_seconds": round(e5_store_seconds, 6),
        **store_counters,
    }
    return {"e1": e1, "e5": e5, "certain": certain}


_LAST_FAULTS: dict | None = None


class _CountdownToken:
    """A duck-typed cancellation token that fires after N ``cancelled`` polls.

    Deterministic for a given engine version (the engine's control checks
    are strided by fixed constants), which is all the scenario needs: the
    compared bits assert *resume exactness*, not where the cut landed.
    """

    def __init__(self, checks: int) -> None:
        self._remaining = checks

    def cancel(self) -> None:
        self._remaining = 0

    @property
    def cancelled(self) -> bool:
        if self._remaining <= 0:
            return True
        self._remaining -= 1
        return False


def _run_fault_tolerance(quick: bool) -> dict:
    """Interruption leaves a resumable prefix; disabled injection is free.

    Three deterministic checks on the e5 workload (T_c over an E-cycle):

    * **instrumented == plain** — the same chase run once bare and once
      with a live :class:`~repro.chase.CancellationToken` plus a far
      ``deadline_s`` produces round-for-round identical atoms (the
      control plumbing may cost time, never results; both wall-clocks
      land in ``meta["faults"]`` so the overhead stays visible);
    * **cancel + resume == uninterrupted** — a token fired mid-run stops
      the chase on a complete-round boundary, ``chase.cancelled`` is
      counted, and :func:`~repro.chase.resume` reaches the exact same
      rounds/atoms as the never-interrupted run (Observation 8);
    * **fault registry round-trips** — ``faults.inject("sqlite.locked")``
      forces exactly one synthetic lock error, the store's backoff
      retries it (``store.lock_retries == 1``) and the write succeeds.
    """
    import hashlib

    from .. import faults
    from ..chase import ChaseBudget, chase, resume
    from ..storage import SQLiteStore
    from ..workloads import edge_cycle, example42_tc

    global _LAST_FAULTS
    theory = example42_tc()
    length, rounds = (30, 8) if quick else (60, 12)
    cycle = edge_cycle(length)
    budget = ChaseBudget(max_rounds=rounds, max_atoms=500_000)

    started = time.perf_counter()
    plain = chase(theory, cycle, budget=budget)
    plain_seconds = time.perf_counter() - started

    from ..chase import CancellationToken

    armed = ChaseBudget(max_rounds=rounds, max_atoms=500_000, deadline_s=3600.0)
    started = time.perf_counter()
    instrumented = chase(theory, cycle, budget=armed, cancel=CancellationToken())
    instrumented_seconds = time.perf_counter() - started
    instrumented_identical = [
        frozenset(added) for added in plain.round_added
    ] == [frozenset(added) for added in instrumented.round_added]

    token = _CountdownToken(3)
    interrupted = chase(theory, cycle, budget=budget, cancel=token)
    cancelled_counted = interrupted.stats.counters["chase.cancelled"] == 1
    cut_rounds = interrupted.rounds_run
    resumed = resume(
        interrupted, rounds - cut_rounds, budget=ChaseBudget(max_atoms=500_000)
    )
    resume_exact = [frozenset(added) for added in plain.round_added] == [
        frozenset(added) for added in resumed.round_added
    ]

    faults.clear()
    faults.inject("sqlite.locked")
    try:
        with SQLiteStore(":memory:") as probe:
            probe.add_many(cycle)
            lock_retried = probe.stats.counters["store.lock_retries"] == 1
            survived = len(probe) == len(cycle)
    finally:
        faults.clear()

    digest = hashlib.sha256(
        "\n".join(sorted(repr(item) for item in resumed.instance)).encode("utf8")
    ).hexdigest()[:16]
    _LAST_FAULTS = {
        "plain_seconds": round(plain_seconds, 6),
        "instrumented_seconds": round(instrumented_seconds, 6),
        "overhead_ratio": (
            round(instrumented_seconds / plain_seconds, 3) if plain_seconds else 0.0
        ),
        "interrupted_at_round": cut_rounds,
    }
    return {
        "atoms": len(plain.instance),
        "instrumented_identical": instrumented_identical,
        "cancelled_counted": cancelled_counted,
        "resume_exact": resume_exact,
        "lock_retried": lock_retried and survived,
        "checksum": digest,
    }


_LAST_REWRITING: dict | None = None


def _run_rewriting_saturation(quick: bool) -> dict:
    """Indexed rewriting == naive rewriting, with the speedup on record.

    Two workloads, mirroring the shapes of ``bench_e3_linear_rewritings``
    and ``bench_a3_rewriting_cores``:

    * **e3** — a path query over the linear theory ``T_p``; the kept set
      is tiny, so this pins the *output* (disjunct count plus a
      canonical-key checksum) rather than the speedup;
    * **a3** — a multi-answer join over the three DL-Lite-style
      ontologies merged into one theory.  Most rules are irrelevant to
      any one atom (the relevance filter prunes them), independent chains
      reach isomorphic duplicates through different unifier orders (the
      canonical-key dedup absorbs them) and the kept set is large enough
      that the inverted predicate index pays for itself.  This workload
      is timed two ways — ``use_indexes=False`` and the default indexed
      engine — and the compared ``value`` carries the disjunct count, a
      canonical-key checksum, a naive-vs-indexed equality bit and the
      exact ``rewrite.*`` filter counters.

    The naive/indexed wall-clock ratio is hardware-dependent, so it
    lands in ``meta["rewriting"]`` rather than the compared value; the
    refresh workflow keeps the committed baselines carrying the measured
    before/after ratio on the reference hardware.
    """
    import hashlib

    from ..logic import parse_query
    from ..logic.tgd import Theory
    from ..rewriting import RewritingBudget, canonical_key, rewrite
    from ..workloads import t_p
    from ..workloads.ontologies import (
        GeographyWorkload,
        MedicalWorkload,
        StockWorkload,
    )

    global _LAST_REWRITING

    def key_checksum(result) -> str:
        keys = sorted(repr(canonical_key(disjunct)) for disjunct in result.ucq)
        return hashlib.sha256("\n".join(keys).encode("utf8")).hexdigest()[:16]

    # e3 shape: a path query over T_p — small output, pinned exactly.
    path_length = 6 if quick else 8
    path_body = ", ".join(f"E(x{i}, x{i + 1})" for i in range(path_length))
    path_theory = t_p()
    path_naive = rewrite(
        path_theory,
        parse_query(f"q(x0) := {path_body}"),
        RewritingBudget(use_indexes=False),
    )
    path_indexed = rewrite(path_theory, parse_query(f"q(x0) := {path_body}"))
    e3 = {
        "disjuncts": len(path_indexed.ucq),
        "checksum": key_checksum(path_indexed),
        "naive_equal": key_checksum(path_naive) == key_checksum(path_indexed),
    }

    # a3 shape: a multi-answer join over the merged ontologies.
    rules = tuple(MedicalWorkload().theory.rules())
    rules += tuple(GeographyWorkload().theory.rules())
    rules += tuple(StockWorkload().theory.rules())
    theory = Theory(rules, name="guard-ontologies")
    text = (
        "q(x, y, z) := exists c, r, s. "
        "Diagnosed(x, c), LocatedIn(y, r), Owns(z, s)"
        if quick
        else "q(x, y, z, w) := exists c, r, s, c2. "
        "Diagnosed(x, c), LocatedIn(y, r), Owns(z, s), Diagnosed(w, c2)"
    )
    started = time.perf_counter()
    naive = rewrite(theory, parse_query(text), RewritingBudget(use_indexes=False))
    naive_seconds = time.perf_counter() - started
    started = time.perf_counter()
    indexed = rewrite(theory, parse_query(text))
    indexed_seconds = time.perf_counter() - started
    counters = indexed.stats.counters
    # Best-of across the harness's repeats, mirroring the min(runs) the
    # scenario's own seconds get: single-run jitter on a busy machine
    # should not decide the committed before/after ratio.
    if _LAST_REWRITING is not None:
        naive_seconds = min(naive_seconds, _LAST_REWRITING["naive_seconds"])
        indexed_seconds = min(indexed_seconds, _LAST_REWRITING["indexed_seconds"])
    _LAST_REWRITING = {
        "naive_seconds": round(naive_seconds, 6),
        "indexed_seconds": round(indexed_seconds, 6),
        "speedup": (
            round(naive_seconds / indexed_seconds, 3) if indexed_seconds else 0.0
        ),
    }
    return {
        "e3": e3,
        "a3": {
            "disjuncts": len(indexed.ucq),
            "checksum": key_checksum(indexed),
            "naive_equal": key_checksum(naive) == key_checksum(indexed),
            "subsumption_checks": counters.get("rewrite.subsumption_checks", 0),
            "subsumption_skipped": counters.get("rewrite.subsumption_skipped", 0),
            "dedup_hits": counters.get("rewrite.dedup_hits", 0),
            "rules_skipped": counters.get("rewrite.rules_skipped", 0),
        },
    }


_LAST_INCREMENTAL: dict | None = None


def _run_incremental_update(quick: bool) -> dict:
    """Delta maintenance == from-scratch chase, across all three backends.

    Drives one seeded random add/retract trajectory over a terminating
    existential theory three ways — :func:`repro.incremental_update` on
    the object engine, the same calls with ``backend="columnar"``, and
    :func:`repro.storage.update_store_chase` against a SQLite store —
    and after every step compares each maintained fixpoint's content
    digest against a full re-chase of the updated base (the DRed
    soundness claim of ``docs/incremental.md``, atom for atom).  The
    compared ``value`` carries the step count, the add/retract totals,
    one all-steps-equal bit per backend, the final atom count and a
    content checksum.  The incremental-vs-rechase wall-clock ratio is
    hardware-dependent, so it lands in ``meta["incremental"]`` rather
    than the compared value.
    """
    import hashlib
    import random

    from ..chase import ChaseBudget, chase
    from ..incremental import incremental_update
    from ..logic import Instance, parse_theory
    from ..storage import (
        SQLiteStore,
        chase_into_store,
        content_digest,
        update_store_chase,
    )
    from ..workloads.generators import random_instance

    global _LAST_INCREMENTAL
    theory = parse_theory(
        "E(x, y), E(y, z) -> E(x, z)\n"
        "E(x, y) -> exists m. M(x, m)\n"
        "M(x, m) -> H(x)",
        name="guard-incremental",
    )
    edge = next(
        atom.predicate
        for rule in theory.rules()
        for atom in rule.body
        if atom.predicate.name == "E"
    )
    pool_size, domain, steps = (60, 14, 4) if quick else (120, 20, 6)
    pool = sorted(
        random_instance(
            [edge], fact_count=pool_size, domain_size=domain, seed=20260808
        ),
        key=repr,
    )
    split = len(pool) // 2
    base = list(pool[:split])
    reserve = list(pool[split:])
    budget = ChaseBudget(max_rounds=40, max_atoms=500_000)
    rng = random.Random(97)

    memory = chase(theory, Instance(base), budget=budget, backend="memory")
    columnar = chase(theory, Instance(base), budget=budget, backend="columnar")
    memory_equal = columnar_equal = sqlite_equal = True
    incremental_seconds = 0.0
    scratch_seconds = 0.0
    adds = retracts = 0
    with SQLiteStore(":memory:") as store:
        chase_into_store(theory, Instance(base), store, budget=budget)
        for _ in range(steps):
            if reserve and (len(base) < 4 or rng.random() < 0.55):
                add = [reserve.pop() for _ in range(min(3, len(reserve)))]
                retract = []
            else:
                add = []
                retract = rng.sample(sorted(base, key=repr), k=min(2, len(base)))
            adds += len(add)
            retracts += len(retract)
            for item in retract:
                base.remove(item)
            base.extend(add)

            started = time.perf_counter()
            memory = incremental_update(
                memory, add=add, retract=retract, budget=budget
            ).result
            incremental_seconds += time.perf_counter() - started
            columnar = incremental_update(
                columnar, add=add, retract=retract, budget=budget, backend="columnar"
            ).result
            update_store_chase(store, theory, add=add, retract=retract, budget=budget)

            started = time.perf_counter()
            scratch = chase(theory, Instance(base), budget=budget, backend="memory")
            scratch_seconds += time.perf_counter() - started
            expected = content_digest(scratch.instance)
            memory_equal = memory_equal and (
                content_digest(memory.instance) == expected
            )
            columnar_equal = columnar_equal and (
                content_digest(columnar.instance) == expected
            )
            sqlite_equal = sqlite_equal and store.digest() == expected

    digest = hashlib.sha256(
        "\n".join(sorted(repr(item) for item in memory.instance)).encode("utf8")
    ).hexdigest()[:16]
    _LAST_INCREMENTAL = {
        "steps": steps,
        "incremental_seconds": round(incremental_seconds, 6),
        "scratch_seconds": round(scratch_seconds, 6),
        "speedup": (
            round(scratch_seconds / incremental_seconds, 3)
            if incremental_seconds
            else 0.0
        ),
    }
    return {
        "steps": steps,
        "adds": adds,
        "retracts": retracts,
        "memory_equal": memory_equal,
        "columnar_equal": columnar_equal,
        "sqlite_equal": sqlite_equal,
        "atoms": len(memory.instance),
        "checksum": digest,
    }


_LAST_SERVICE: dict | None = None


def _run_service_load(quick: bool) -> dict:
    """Concurrent service traffic answers exactly like a fresh session.

    Spins up an in-process :class:`~repro.service.server.OMQAService`
    and drives the :mod:`repro.bench.loadgen` plan through it: N asyncio
    clients mixing queries (rotating all three backends) with appends.
    The compared ``value`` is everything deterministic about the run —
    request/op counts, zero errors, the single-flight compile count
    (exactly one rewriting per distinct query shape, however many
    clients race), and the final per-query answer digests, which every
    backend must produce *and* which must equal a fresh from-scratch
    ``OMQASession.answer()`` over the reconstructed final instance.
    Throughput and p50/p99 latency are machine properties, so they land
    in ``meta["service"]`` rather than the compared value.
    """
    from .loadgen import run_loadgen

    global _LAST_SERVICE
    clients, ops = (3, 9) if quick else (6, 18)
    report = run_loadgen(
        clients=clients, ops_per_client=ops, append_every=3, workers=4
    )
    _LAST_SERVICE = {
        "seconds": report["seconds"],
        "throughput_rps": report["throughput_rps"],
        "p50_ms": report["latency_ms"]["p50"],
        "p99_ms": report["latency_ms"]["p99"],
        "max_ms": report["latency_ms"]["max"],
        "journal_mode": report["journal_mode"],
        "rewrite_cache_hits": report["rewrite_cache_hits"],
    }
    return {
        "clients": report["clients"],
        "requests": report["requests"],
        "queries": report["ops"]["queries"],
        "appends": report["ops"]["appends"],
        "errors": report["errors"],
        "compiles": report["rewrite_cache_misses"],
        "digests_match": report["digests_match"],
        "digests": report["final_digests"],
    }


SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        "e1_doubling",
        "Theorem 5B rewriting process (bench_e1_doubling defaults)",
        _run_e1_doubling,
    ),
    Scenario(
        "e5_tc_cycles",
        "T_c locality defects on degree-2 cycles (bench_e5_tc_cycles defaults)",
        _run_e5_tc_cycles,
    ),
    Scenario(
        "micro_core_ops",
        "hot inner operations: join, chase round, containment, process",
        _run_micro_core_ops,
    ),
    Scenario(
        "columnar_equivalence",
        "columnar hash-join kernel vs object engine: identical chase, exact counters",
        _run_columnar_equivalence,
    ),
    Scenario(
        "sql_equivalence",
        "SQLite-evaluated answers and store chase match the in-memory engines",
        _run_sql_equivalence,
    ),
    Scenario(
        "fault_tolerance",
        "interruption leaves an exactly-resumable prefix; injection off is free",
        _run_fault_tolerance,
    ),
    Scenario(
        "rewriting_saturation",
        "indexed rewriting fast path vs naive engine: identical UCQ, exact counters",
        _run_rewriting_saturation,
    ),
    Scenario(
        "incremental_update",
        "delta-maintained fixpoints vs from-scratch chases: identical digests",
        _run_incremental_update,
    ),
    Scenario(
        "service_load",
        "concurrent service traffic: digests match a fresh session, one compile per shape",
        _run_service_load,
    ),
)


def _calibration_value() -> int:
    total = 0
    for index in range(_CALIBRATION_LOOP):
        total += index * index
    return total


def measure_calibration(repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds of the fixed calibration spin loop."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _calibration_value()
        best = min(best, time.perf_counter() - started)
    return best


def run_guard_scenarios(
    quick: bool = False,
    repeats: int = 3,
    scenarios: tuple[Scenario, ...] = SCENARIOS,
) -> dict:
    """Time every scenario and return the canonical BENCH document.

    Wall-clock ratios a scenario measures are a property of the machine,
    not of the code under guard, so they land in the document's ``meta``
    rather than in the compared values.
    """
    global _LAST_STORAGE, _LAST_COLUMNAR
    global _LAST_FAULTS, _LAST_REWRITING, _LAST_INCREMENTAL, _LAST_SERVICE
    _LAST_STORAGE = None
    _LAST_COLUMNAR = None
    _LAST_FAULTS = None
    _LAST_REWRITING = None
    _LAST_INCREMENTAL = None
    _LAST_SERVICE = None
    measured = []
    for scenario in scenarios:
        runs: list[float] = []
        value: Any = None
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            value = scenario.run(quick)
            runs.append(round(time.perf_counter() - started, 6))
        measured.append(
            {
                "name": scenario.name,
                "description": scenario.description,
                "seconds": min(runs),
                "runs": runs,
                "value": value,
            }
        )
    meta = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if _LAST_COLUMNAR is not None:
        meta["columnar"] = dict(_LAST_COLUMNAR)
    if _LAST_STORAGE is not None:
        meta["storage"] = dict(_LAST_STORAGE)
    if _LAST_FAULTS is not None:
        meta["faults"] = dict(_LAST_FAULTS)
    if _LAST_REWRITING is not None:
        meta["rewriting"] = dict(_LAST_REWRITING)
    if _LAST_INCREMENTAL is not None:
        meta["incremental"] = dict(_LAST_INCREMENTAL)
    if _LAST_SERVICE is not None:
        meta["service"] = dict(_LAST_SERVICE)
    document = bench_document(
        mode="quick" if quick else "full",
        calibration_seconds=round(measure_calibration(), 6),
        scenarios=measured,
        meta=meta,
    )
    return document


@dataclass
class GuardRow:
    """One scenario's comparison outcome."""

    name: str
    baseline_seconds: float
    current_seconds: float
    normalized_ratio: float
    value_matches: bool
    regressed: bool


@dataclass
class GuardReport:
    """The comparison of a fresh run against a committed baseline."""

    rows: list[GuardRow]
    tolerance: float
    missing: list[str]

    @property
    def ok(self) -> bool:
        return not self.missing and all(
            row.value_matches and not row.regressed for row in self.rows
        )

    def table(self) -> Table:
        table = Table(
            f"bench-guard (tolerance {self.tolerance:.0%}, calibration-normalized)",
            ["scenario", "baseline s", "current s", "ratio", "values", "verdict"],
        )
        for row in self.rows:
            verdict = "ok"
            if not row.value_matches:
                verdict = "VALUE DRIFT"
            elif row.regressed:
                verdict = "REGRESSED"
            elif row.normalized_ratio < 1.0:
                verdict = "improved"
            table.add(
                row.name,
                row.baseline_seconds,
                row.current_seconds,
                round(row.normalized_ratio, 3),
                "match" if row.value_matches else "drift",
                verdict,
            )
        for name in self.missing:
            table.note(f"scenario {name!r} missing from the current run")
        return table


def compare_documents(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> GuardReport:
    """Compare a fresh BENCH document against the baseline one.

    A scenario regresses when its calibration-normalized seconds exceed
    the baseline's by more than ``tolerance``; a changed checksum value is
    always a failure (the workload no longer computes the same thing).
    """
    validate_bench_document(current)
    validate_bench_document(baseline)
    if current["mode"] != baseline["mode"]:
        raise ValueError(
            f"mode mismatch: current is {current['mode']!r}, "
            f"baseline is {baseline['mode']!r}"
        )
    current_calibration = current["calibration_seconds"] or 1.0
    baseline_calibration = baseline["calibration_seconds"] or 1.0
    current_by_name = {entry["name"]: entry for entry in current["scenarios"]}
    rows: list[GuardRow] = []
    missing: list[str] = []
    for entry in baseline["scenarios"]:
        fresh = current_by_name.get(entry["name"])
        if fresh is None:
            missing.append(entry["name"])
            continue
        normalized_ratio = (fresh["seconds"] / current_calibration) / (
            entry["seconds"] / baseline_calibration
        )
        rows.append(
            GuardRow(
                name=entry["name"],
                baseline_seconds=entry["seconds"],
                current_seconds=fresh["seconds"],
                normalized_ratio=normalized_ratio,
                value_matches=fresh["value"] == entry["value"],
                regressed=normalized_ratio > 1.0 + tolerance,
            )
        )
    return GuardReport(rows=rows, tolerance=tolerance, missing=missing)


def default_baseline_path(quick: bool) -> Path:
    """The committed baseline for the given mode, relative to the repo."""
    name = "BENCH_guard_quick.json" if quick else "BENCH_guard_full.json"
    return Path("benchmarks") / "baselines" / name
