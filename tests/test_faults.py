"""Chaos suite: fault injection, interruption, and crash-exact resume.

Everything here pins the robustness contract of ``docs/robustness.md``:
whatever interrupts a chase — a ``ChaseBudget.deadline_s``, a fired
:class:`~repro.chase.CancellationToken`, or a ``SIGKILL`` to the whole
process — the surviving state is a *complete round prefix*, and resuming
it reaches an atom-for-atom identical fixpoint with consistent
``chase.*`` counters (Observation 8 made operational against failure).

Injection sites come from :mod:`repro.faults`; the subprocess tests set
``REPRO_FAULTS`` in the child's environment, which is exactly how the CI
chaos job drives the CLI.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import faults
from repro.chase import (
    CancellationToken,
    ChaseBudget,
    ChaseBudgetExceeded,
    ChaseCancelled,
    chase,
    resume,
)
from repro.logic import parse_instance, parse_theory
from repro.cli import main
from repro.storage import SQLiteStore, chase_into_store, resume_store_chase
from repro.storage.base import content_digest
from repro.workloads import green_path, t_d
from repro.telemetry import Telemetry

ROOT = Path(__file__).resolve().parent.parent

CHASE_COUNTERS = (
    "chase.rounds",
    "chase.matches",
    "chase.atoms_produced",
    "chase.dedup_hits",
)


def terminating_theory():
    return parse_theory(
        "E(x, y) -> R(x, y)\n"
        "R(x, y), E(y, z) -> R(x, z)\n"
        "R(x, y) -> exists w. S(y, w)\n"
        "S(x, y) -> T(y)",
        name="chaos",
    )


def chain(n):
    return parse_instance(" ".join(f"E(a{i}, a{i + 1})." for i in range(n)))


def assert_counters_match(stats, reference):
    for name in CHASE_COUNTERS:
        assert stats.counters[name] == reference.counters[name], name


class CountdownToken:
    """Duck-typed token that reports cancelled after N polls.

    Lets tests cut a run at a *deterministic* control check without
    wall-clock races; the engine only reads ``.cancelled``.
    """

    def __init__(self, checks):
        self.remaining = checks

    @property
    def cancelled(self):
        if self.remaining <= 0:
            return True
        self.remaining -= 1
        return False


class TestFaultRegistry:
    def setup_method(self):
        faults.clear()

    def teardown_method(self):
        faults.clear()

    def test_disarmed_registry_never_fires(self):
        assert not faults.active()
        assert not faults.fire("storechase.kill")

    def test_fire_consumes_and_matches_round(self):
        faults.inject("storechase.kill", round=3)
        assert not faults.fire("storechase.kill", round=2)
        assert faults.fire("storechase.kill", round=3)
        assert not faults.fire("storechase.kill", round=3)  # consumed

    def test_times_budget(self):
        faults.inject("sqlite.locked", times=2)
        assert faults.fire("sqlite.locked")
        assert faults.fire("sqlite.locked")
        assert not faults.fire("sqlite.locked")

    def test_install_from_env_parses_rounds(self):
        installed = faults.install_from_env("storechase.kill@4, sqlite.locked")
        assert installed == 2
        assert not faults.fire("storechase.kill", round=3)
        assert faults.fire("storechase.kill", round=4)
        assert faults.fire("sqlite.locked")

    def test_install_from_env_rejects_garbage(self):
        with pytest.raises(ValueError):
            faults.install_from_env("storechase.kill@not-a-round")

    @pytest.mark.parametrize(
        "spec", ["parallel.respawn_fail", "storechase.kil@2", "sqlite.lock"]
    )
    def test_unknown_site_rejected(self, spec):
        # A stale or misspelt site would otherwise arm nothing and let a
        # chaos test pass vacuously.
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.install_from_env(spec)
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.inject(spec.partition("@")[0])
        assert not faults.active()


class TestEngineInterruption:
    """Deadline and cancellation leave an exactly-resumable prefix."""

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_deadline_zero_runs_no_rounds(self, backend):
        theory, base = terminating_theory(), chain(8)
        result = chase(
            theory, base, budget=ChaseBudget(deadline_s=0.0), backend=backend
        )
        assert result.rounds_run == 0
        assert not result.terminated
        assert result.stats.counters["chase.deadline_hit"] == 1
        assert result.instance.atoms() == base.atoms()

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    @pytest.mark.parametrize("checks", [1, 5, 40])
    def test_cancel_resume_identical(self, backend, checks):
        theory, base = terminating_theory(), chain(10)
        reference = chase(theory, base, backend=backend)
        assert reference.terminated

        token = CountdownToken(checks)
        cut = chase(theory, base, backend=backend, cancel=token)
        assert not cut.terminated
        assert cut.stats.counters["chase.cancelled"] == 1
        # Every surviving round is a complete round of the reference run.
        for mine, theirs in zip(cut.round_added, reference.round_added):
            assert frozenset(mine) == frozenset(theirs)

        resumed = resume(cut, 100, backend=backend)
        assert resumed.terminated
        assert content_digest(resumed.instance) == content_digest(
            reference.instance
        )
        assert_counters_match(resumed.stats, reference.stats)

    def test_pre_cancelled_token_raises_under_raise_policy(self):
        theory, base = terminating_theory(), chain(4)
        token = CancellationToken()
        token.cancel()
        with pytest.raises(ChaseCancelled):
            chase(
                theory,
                base,
                budget=ChaseBudget(on_exceeded="raise"),
                cancel=token,
            )
        # ChaseCancelled must stay catchable as the budget error.
        assert issubclass(ChaseCancelled, ChaseBudgetExceeded)

    def test_deadline_interrupt_is_resumable(self):
        theory, base = terminating_theory(), chain(10)
        reference = chase(theory, base)
        cut = chase(theory, base, budget=ChaseBudget(deadline_s=0.0))
        resumed = resume(cut, 100)
        assert resumed.terminated
        assert content_digest(resumed.instance) == content_digest(
            reference.instance
        )
        assert_counters_match(resumed.stats, reference.stats)

    def test_aborted_round_recorded_without_partial_atoms(self):
        theory, base = terminating_theory(), chain(10)
        token = CountdownToken(3)
        cut = chase(theory, base, cancel=token)
        aborted = [entry for entry in cut.stats.rounds if entry.get("aborted")]
        if aborted:  # the cut landed inside a round, not on its boundary
            assert aborted[-1]["round"] == cut.rounds_run + 1
            assert aborted[-1]["total_atoms"] == len(cut.instance)


class TestSQLiteHardening:
    def setup_method(self):
        faults.clear()

    def teardown_method(self):
        faults.clear()

    def test_busy_timeout_pragma_set(self):
        with SQLiteStore(":memory:") as store:
            (timeout,) = store.connection.execute(
                "PRAGMA busy_timeout"
            ).fetchone()
            assert timeout == 5_000

    def test_lock_retry_counts_and_succeeds(self):
        faults.inject("sqlite.locked", times=2)
        with SQLiteStore(":memory:") as store:
            store.add_many(chain(3))
            assert store.stats.counters["store.lock_retries"] == 2
            assert len(store) == 3

    def test_non_lock_errors_propagate(self):
        with SQLiteStore(":memory:") as store:
            store.add_many(chain(2))
            import sqlite3

            with pytest.raises(sqlite3.OperationalError):
                store._guarded(
                    lambda: store.connection.execute("SELECT * FROM nope")
                )

    def test_rollback_resets_caches_and_catalog(self):
        with SQLiteStore(":memory:") as store:
            store.add_many(chain(2))
            committed = len(store)
            # Open a transaction with new facts and new terms, then drop it.
            store.buffer(next(iter(parse_instance("Fresh(z1, z2)."))))
            store._flush_pending()
            store.rollback()
            assert len(store) == committed
            # The catalog must not advertise the rolled-back table.
            assert all(
                predicate.name != "Fresh" for predicate in store._tables
            )
            # The store stays fully usable after the reset.
            store.add_many(parse_instance("Fresh(z1, z2)."))
            assert len(store) == committed + 1


class TestStoreChaseCrash:
    """SIGKILL at randomized rounds; resume is digest- and counter-exact."""

    # The run every test cuts and resumes: a theory, a base, the one-shot
    # budget it is compared against and whether that run reaches a fixpoint.
    budget = ChaseBudget()
    terminates = True

    def workload(self):
        return terminating_theory(), chain(12)

    def setup_method(self):
        faults.clear()

    def teardown_method(self):
        faults.clear()

    def _reference(self):
        theory, base = self.workload()
        result = chase_into_store(
            theory, base, SQLiteStore(":memory:"), budget=self.budget
        )
        assert result.terminated == self.terminates
        return theory, base, result

    def _resume(self, store):
        """Resume with the rounds the one-shot budget has left."""
        done = int(store.get_meta("storechase.rounds"))
        return resume_store_chase(
            store, budget=replace(self.budget, max_rounds=self.budget.max_rounds - done)
        )

    def _kill_subprocess(self, fault, db_path, batch_size=4096):
        theory, base = self.workload()
        rules = "\n".join(repr(rule) for rule in theory)
        facts = " ".join(f"{item!r}." for item in base)
        script = (
            "import os, sys\n"
            f"os.environ['REPRO_FAULTS'] = {fault!r}\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "from repro.chase import ChaseBudget\n"
            "from repro.storage import SQLiteStore, chase_into_store\n"
            "from repro.logic import parse_instance, parse_theory\n"
            f"theory = parse_theory({rules!r})\n"
            f"base = parse_instance({facts!r})\n"
            f"store = SQLiteStore({str(db_path)!r}, batch_size={batch_size})\n"
            "chase_into_store(theory, base, store, "
            f"budget=ChaseBudget(max_rounds={self.budget.max_rounds}))\n"
            "raise SystemExit('fault did not fire')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        return proc

    def _assert_resumed_exactly(self, resumed, reference):
        assert resumed.terminated == reference.terminated
        assert resumed.digest() == reference.digest()
        assert_counters_match(resumed.stats, reference.stats)

    @pytest.mark.parametrize("round_", [1, 2, 4])
    def test_sigkill_before_commit_resumes_exactly(self, tmp_path, round_):
        theory, base, reference = self._reference()
        db = tmp_path / f"kill{round_}.db"
        self._kill_subprocess(f"storechase.kill@{round_}", db)
        with SQLiteStore(db) as store:
            assert int(store.get_meta("storechase.rounds")) == round_ - 1
            self._assert_resumed_exactly(self._resume(store), reference)

    @pytest.mark.parametrize("round_", [2, 3])
    def test_sigkill_midround_resumes_exactly(self, tmp_path, round_):
        theory, base, reference = self._reference()
        db = tmp_path / f"mid{round_}.db"
        # A small batch size forces the mid-round insert path to run (and
        # the kill to land) while the round's rows are still uncommitted.
        self._kill_subprocess(f"storechase.kill_midround@{round_}", db, batch_size=4)
        with SQLiteStore(db) as store:
            assert int(store.get_meta("storechase.rounds")) < round_
            self._assert_resumed_exactly(self._resume(store), reference)

    def test_store_chase_cancel_rolls_back_midround(self):
        theory, base, reference = self._reference()
        token = CancellationToken()
        store = SQLiteStore(":memory:")
        original = SQLiteStore._select
        calls = {"n": 0}

        def tripping(self, sql, params=()):
            calls["n"] += 1
            if calls["n"] == 25:
                token.cancel()
            return original(self, sql, params)

        SQLiteStore._select = tripping
        try:
            cut = chase_into_store(
                theory, base, store, budget=self.budget, cancel=token
            )
        finally:
            SQLiteStore._select = original
        assert not cut.terminated
        assert store.stats.counters["chase.cancelled"] == 1
        self._assert_resumed_exactly(self._resume(store), reference)

    def test_store_chase_deadline_zero(self):
        theory, base, reference = self._reference()
        store = SQLiteStore(":memory:")
        cut = chase_into_store(
            theory, base, store, budget=replace(self.budget, deadline_s=0.0)
        )
        assert cut.rounds_run == 0 and not cut.terminated
        assert store.stats.counters["chase.deadline_hit"] == 1
        resumed = self._resume(store)
        assert resumed.terminated == reference.terminated
        assert resumed.digest() == reference.digest()


class TestStoreChaseCrashTd(TestStoreChaseCrash):
    """The same cuts under ``T_d`` (bodyless rules, a universal head
    variable), compared with its one-shot four-round prefix."""

    budget = ChaseBudget(max_rounds=4)
    terminates = False

    def workload(self):
        return t_d(), green_path(3)


class TestCorruptDatabase:
    def test_corrupt_db_exits_2_naming_the_path(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.db"
        garbage.write_bytes(b"not a sqlite file" * 64)
        before = garbage.read_bytes()
        code = main(
            [
                "chase", "-e", "E(x, y) -> R(x, y)", "E(a, b)",
                "--backend", "sqlite", "--db", str(garbage),
            ]
        )
        assert code == 2
        assert str(garbage) in capsys.readouterr().err
        assert garbage.read_bytes() == before


class TestTelemetryTimer:
    def test_timer_records_elapsed_on_exception(self):
        stats = Telemetry()
        with pytest.raises(RuntimeError):
            with stats.timer("doomed"):
                time.sleep(0.01)
                raise RuntimeError("boom")
        assert stats.phases["doomed"] >= 0.01
        assert stats.counters["doomed.interrupted"] == 1

    def test_timer_clean_path_matches_phase_semantics(self):
        stats = Telemetry()
        with stats.timer("fine"):
            pass
        assert "fine" in stats.phases
        assert stats.counters.get("fine.interrupted", 0) == 0


class TestCLISigint:
    """First Ctrl-C cancels cooperatively (exit 130, resumable state)."""

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
    def test_sigint_leaves_resumable_db_and_exits_130(self, tmp_path):
        theory_file = tmp_path / "theory.txt"
        theory_file.write_text(
            "E(x, y) -> R(x, y)\nR(x, y), E(y, z) -> R(x, z)\n",
            encoding="utf8",
        )
        instance_file = tmp_path / "instance.txt"
        n = 400
        instance_file.write_text(
            " ".join(f"E(a{i}, a{(i + 1) % n})." for i in range(n)),
            encoding="utf8",
        )
        db = tmp_path / "run.db"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "chase",
                str(theory_file),
                str(instance_file),
                "--backend",
                "sqlite",
                "--db",
                str(db),
                "--rounds",
                "5000",
                "--max-atoms",
                "99999999",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(2.0)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 130, stderr
        assert "--resume" in stderr
        # The interrupted database resumes to the exact fixpoint.
        reference = SQLiteStore(":memory:")
        expected = chase_into_store(
            parse_theory(theory_file.read_text(), name="chaos"),
            parse_instance(instance_file.read_text()),
            reference,
            budget=ChaseBudget(max_rounds=5000, max_atoms=99_999_999),
        )
        with SQLiteStore(db) as store:
            resumed = resume_store_chase(
                store,
                budget=ChaseBudget(max_rounds=5000, max_atoms=99_999_999),
            )
            assert resumed.terminated
            assert resumed.digest() == expected.digest()
