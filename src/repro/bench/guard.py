"""Benchmark regression guard: canonical ``BENCH_*.json`` runs + comparison.

The experiment benches under ``benchmarks/`` measure *shapes* (doubling
series, locality defects); this module is the *trajectory* side: a fixed
set of guard scenarios — mirroring ``bench_e1_doubling``,
``bench_e5_tc_cycles`` and ``bench_micro_core_ops`` at their default
sizes, plus ``fault_tolerance``, which records the cost of the chase's
cancellation plumbing — is timed into a canonical JSON document (see
:func:`repro.bench.reporting.validate_bench_document` for the schema) and
compared against a committed baseline.  Engine-to-engine equivalences
(columnar, SQL, indexed rewriting, delta maintenance, the service) are
pinned by the test suite, not here.

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
        "fault_tolerance",
        "interruption leaves an exactly-resumable prefix; injection off is free",
        _run_fault_tolerance,
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
    global _LAST_FAULTS
    _LAST_FAULTS = None
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
    if _LAST_FAULTS is not None:
        meta["faults"] = dict(_LAST_FAULTS)
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
