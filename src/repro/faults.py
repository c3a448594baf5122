"""Deterministic fault injection for the chaos test-suite.

The fault-tolerance layer (deadlines, cancellation, durable store-chase
rounds, lock retries — see ``docs/robustness.md``) is only trustworthy
if its failure paths are *executed*, not just written.  This registry
lets tests arm named faults at precise points of a run:

>>> from repro import faults
>>> faults.inject("storechase.kill", round=3)
>>> # ... run a store chase: the process SIGKILLs itself just before
>>> # committing round 3, exercising crash-safe resume end to end ...
>>> faults.clear()

Injection points call :func:`fire` with their site name (and the current
round where one exists); ``fire`` returns ``True`` exactly when an armed
fault matches, consuming one of its remaining ``times``.  The registered
sites (:data:`SITES`; arming any other name raises ``ValueError``, so a
typo or a stale site name can never silently disarm a chaos test):

``storechase.kill``
    the store chase SIGKILLs its own process just *before* committing the
    round — the round's rows and meta roll back, simulating a crash at
    the worst point of the commit window;
``storechase.kill_midround``
    SIGKILL while the round's rows are still being inserted (uncommitted);
``sqlite.locked``
    the store's next guarded statement raises a synthetic ``database is
    locked``, exercising the bounded jittered-backoff retry.

Two arming paths:

* in-process: :func:`inject` / :func:`clear` (what ``tests/test_faults.py``
  uses directly);
* cross-process: the ``REPRO_FAULTS`` environment variable, parsed once at
  import time — a comma-separated list of ``name`` or ``name@round``
  entries, e.g. ``REPRO_FAULTS="storechase.kill@3"`` for subprocess
  SIGKILL tests.  Call :func:`install_from_env` to re-parse explicitly.

Disabled cost is one module-global boolean check per *round* (never per
match): production runs with no faults armed pay nothing measurable —
pinned by the ``fault_tolerance`` bench-guard scenario.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_VAR = "REPRO_FAULTS"

SITES = (
    "storechase.kill",
    "storechase.kill_midround",
    "sqlite.locked",
)

_armed = False
_registry: dict[str, list["_Fault"]] = {}


@dataclass
class _Fault:
    """One armed fault: fires on matching rounds, ``times`` times total."""

    round: int | None
    times: int


def inject(name: str, round: int | None = None, times: int = 1) -> None:
    """Arm fault ``name``; fire on ``round`` (or any round when ``None``)."""
    global _armed
    if name not in SITES:
        raise ValueError(
            f"unknown fault site {name!r}; known sites: {', '.join(SITES)}"
        )
    if times < 1:
        raise ValueError("times must be at least 1")
    _registry.setdefault(name, []).append(_Fault(round=round, times=times))
    _armed = True


def clear() -> None:
    """Disarm every fault (tests call this in teardown)."""
    global _armed
    _registry.clear()
    _armed = False


def active() -> bool:
    """Whether any fault is currently armed (cheap module-global read)."""
    return _armed


def fire(name: str, round: int | None = None) -> bool:
    """Report (and consume) whether fault ``name`` is due at ``round``.

    A fault armed with ``round=None`` matches any round; one armed with a
    specific round matches only when the caller passes that round.  Each
    match consumes one of the fault's ``times``; exhausted faults are
    dropped.  With nothing armed this is a single boolean check.
    """
    if not _armed:
        return False
    faults = _registry.get(name)
    if not faults:
        return False
    for fault in faults:
        if fault.round is not None and fault.round != round:
            continue
        fault.times -= 1
        if fault.times <= 0:
            faults.remove(fault)
            if not faults:
                del _registry[name]
        return True
    return False


def install_from_env(value: str | None = None) -> int:
    """Arm faults from ``REPRO_FAULTS`` (or an explicit spec string).

    Format: comma-separated ``name`` or ``name@round`` entries.  Returns
    the number of faults armed.  Malformed entries and unknown site names
    raise ``ValueError`` loudly — a typo silently disarming a chaos test
    would make the suite vacuous.
    """
    spec = os.environ.get(ENV_VAR, "") if value is None else value
    count = 0
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, round_text = entry.partition("@")
        if not name:
            raise ValueError(f"malformed {ENV_VAR} entry: {entry!r}")
        if round_text:
            try:
                round_number: int | None = int(round_text)
            except ValueError:
                raise ValueError(
                    f"malformed {ENV_VAR} round in entry: {entry!r}"
                ) from None
        else:
            round_number = None
        inject(name, round=round_number)
        count += 1
    return count


# Subprocess chaos tests set REPRO_FAULTS before exec'ing a fresh
# interpreter; arming at import keeps the injection invisible to the code
# under test (it just calls fire()).
install_from_env()
