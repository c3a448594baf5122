"""Golden rewriting output: every disjunct, flag and ``rewrite.*`` counter.

The fixture ``tests/data/rewriting_golden.json`` holds, for the named
queries of the shipped ontology workloads and about 300 seeded connected
2-3-atom CQs over their merged rules, the rewriting's disjunct text,
``complete``, ``always_true``, ``explored`` and every ``rewrite.*``
counter.  Saturation shortcuts must only skip work whose outcome is
forced, so this output may not move by a byte.

Regenerate the fixture (only when the rewriting's output is meant to
change) with::

    PYTHONPATH=src python tests/test_rewriting_golden.py --record
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from repro.logic import parse_query
from repro.logic.serialize import dump_query
from repro.logic.tgd import Theory
from repro.rewriting import rewrite
from repro.workloads import (
    all_ontology_workloads,
    family_ontology,
    university_ontology,
)

FIXTURE = Path(__file__).parent / "data" / "rewriting_golden.json"
RANDOM_QUERIES = 300


def _theories() -> dict[str, Theory]:
    found = {workload.name: workload.theory for workload in all_ontology_workloads()}
    found["University"] = university_ontology()
    found["Family"] = family_ontology()
    merged = [rule for theory in found.values() for rule in theory]
    found["merged"] = Theory(merged, name="merged")
    return found


def _random_query(rng: random.Random, unary: list[str], binary: list[str]) -> str:
    """One connected CQ of 2-3 atoms; constants and repeated answers now and then."""
    used: list[str] = []
    atoms: list[str] = []

    def fresh() -> str:
        used.append(f"v{len(used)}")
        return used[-1]

    def term() -> str:
        if rng.random() < 0.08:
            return f"'k{rng.randrange(2)}'"
        return rng.choice(used) if used and rng.random() < 0.5 else fresh()

    for _ in range(rng.choice((2, 3))):
        if rng.random() < len(unary) / (len(unary) + len(binary)):
            atoms.append(f"{rng.choice(unary)}({rng.choice(used) if used else fresh()})")
            continue
        first = rng.choice(used) if used else fresh()
        atoms.append(f"{rng.choice(binary)}({first}, {term()})")
    answers = used[: rng.choice((0, 1, 1, 1, 2, 2))]
    if answers and rng.random() < 0.1:
        answers = answers + answers[:1]
    existential = [var for var in used if var not in answers]
    prefix = f"exists {', '.join(existential)}. " if existential else ""
    return f"q({', '.join(answers)}) := {prefix}{', '.join(atoms)}"


def golden_cases() -> list[tuple[str, str]]:
    """(theory name, query text) pairs, in a fixed order."""
    cases = [
        (workload.name, text)
        for workload in all_ontology_workloads()
        for text in sorted(dump_query(query).strip() for query in workload.queries.values())
    ]
    theories = _theories()
    predicates = sorted(
        {(p.name, p.arity) for p in theories["merged"].predicates()}
    )
    unary = [name for name, arity in predicates if arity == 1]
    binary = [name for name, arity in predicates if arity == 2]
    rng = random.Random("rewriting-golden")
    seen: set[str] = set()
    while len(seen) < RANDOM_QUERIES:
        text = _random_query(rng, unary, binary)
        if text not in seen:
            seen.add(text)
            cases.append(("merged", text))
    return cases


def outcome(theory: Theory, text: str) -> dict:
    result = rewrite(theory, parse_query(text))
    return {
        "disjuncts": [repr(disjunct) for disjunct in result.ucq],
        "complete": result.complete,
        "always_true": result.always_true,
        "explored": result.explored,
        "counters": {
            name: count
            for name, count in sorted(result.stats.counters.items())
            if name.startswith("rewrite.")
        },
    }


def record() -> list[dict]:
    theories = _theories()
    return [
        {"theory": name, "query": text, **outcome(theories[name], text)}
        for name, text in golden_cases()
    ]


def test_fixture_covers_the_generated_cases():
    recorded = json.loads(FIXTURE.read_text(encoding="utf8"))
    assert [(entry["theory"], entry["query"]) for entry in recorded] == golden_cases()


def test_rewriting_matches_golden():
    recorded = json.loads(FIXTURE.read_text(encoding="utf8"))
    theories = _theories()
    mismatched = [
        entry["query"]
        for entry in recorded
        if {"theory": entry["theory"], "query": entry["query"],
            **outcome(theories[entry["theory"]], entry["query"])} != entry
    ]
    assert not mismatched, f"{len(mismatched)} queries differ, e.g. {mismatched[:3]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_rewriting_golden.py --record")
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(entry, sort_keys=True) for entry in record())
    FIXTURE.write_text(f"[\n{lines}\n]\n", encoding="utf8")
    print(f"wrote {FIXTURE}")
