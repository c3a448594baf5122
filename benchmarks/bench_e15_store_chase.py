"""E15 — the store-backed chase at database scale (>= 10^6 atoms).

The point of `repro.storage` is that the chase's working set does not
have to live in Python: matches stream out of SQLite SELECTs, heads are
built id-natively, and inserts are batched — so memory stays bounded by
the batch size and the trimmed id cache while the fact set grows
arbitrarily.  This bench materializes a binary-tree chase past one
million atoms inside a SQLite file and records the process RSS, the
tracemalloc peak and the database size as *metadata* (hardware- and
allocator-dependent — reported, never compared; the correctness bit is
the atom count and round structure).

The sweep rows double the atom budget; the final row crosses 10^6.
"""

from __future__ import annotations

import os
import tracemalloc

import pytest

from repro.bench import Table
from repro.chase import ChaseBudget
from repro.logic import parse_instance, parse_theory
from repro.storage import SQLiteStore, chase_into_store

# Two existential generators per node -> the frontier doubles each round
# (a complete binary tree of Skolem terms); no rule has universal head
# variables, so the store chase accepts it.
TREE = (
    "N(x) -> exists y. C(x, y)\n"
    "C(x, y) -> N(y)\n"
    "N(x) -> exists z. D(x, z)\n"
    "D(x, z) -> N(z)"
)

ATOM_BUDGETS = (250_000, 500_000, 1_000_000)


def _rss_kb() -> int:
    """Linux VmRSS in kB (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/status", encoding="utf8") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_store_chase(db_dir: str) -> Table:
    theory = parse_theory(TREE, name="binary-tree")
    table = Table(
        "E15: store-backed chase scale (binary Skolem tree in SQLite)",
        ["atom budget", "atoms", "rounds", "db MB", "RSS MB", "py-heap peak MB"],
    )
    for budget_atoms in ATOM_BUDGETS:
        path = os.path.join(db_dir, f"tree_{budget_atoms}.db")
        tracemalloc.start()
        with SQLiteStore(path) as store:
            outcome = chase_into_store(
                theory,
                parse_instance("N(root)"),
                store,
                budget=ChaseBudget(
                    max_rounds=60, max_atoms=budget_atoms, on_exceeded="return"
                ),
            )
            atoms = outcome.atom_count
            rounds = outcome.rounds_run
        _, heap_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        table.add(
            budget_atoms,
            atoms,
            rounds,
            round(os.path.getsize(path) / 1e6, 1),
            round(_rss_kb() / 1024, 1),
            round(heap_peak / 1e6, 1),
        )
    table.note(
        "memory columns are metadata (machine-dependent), not compared; "
        "the contract is the final row crossing 10^6 atoms"
    )
    return table


@pytest.mark.slow
def test_bench_e15_store_chase(benchmark, report, tmp_path):
    table = benchmark.pedantic(run_store_chase, args=(str(tmp_path),), rounds=1, iterations=1)
    report(table)
    atoms = table.column("atoms")
    # The tentpole claim: a chase of >= 10^6 atoms completes in SQLite.
    assert atoms[-1] >= 1_000_000
    # Each budget doubling roughly doubles the materialized prefix.
    assert all(later > earlier for earlier, later in zip(atoms, atoms[1:]))
    # A complete binary tree: every N spawns a C and a D edge.
    assert all(rounds >= 10 for rounds in table.column("rounds"))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        run_store_chase(scratch).show()
