#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric and workload by workload.

Usage (records are the JSON files ``run.py`` writes to ``results/``)::

    python3 benchmarks/omqa/compare.py --base PARENT_RECORDS... --head CHANGE_RECORDS...

For every (workload, metric) pair present on both sides it prints each
side's median and quartiles and one verdict, using the bound and the
direction declared in ``BENCHMARK.json``:

``better``
    at least ten pairs, the change wins at least nine in ten of them
    (ties count for neither), and the medians differ by more than the
    parent's interquartile range;
``unresolved``
    either side's interquartile range is wider than the bound, and not
    every run of the change reads better than every run of the parent;
``worse``
    the change's median is worse than the parent's by more than the
    bound;
``within bound``
    anything else.

Records of one workload are paired in the order of their start time on
each side, so alternate the two commits when producing them.  Each pair
must have the same seed, run length and trace setting, and both sides
the same number of records per workload; otherwise nothing is compared
and the exit code is 2.  The exit code is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(paths) -> dict:
    """Workload -> its records in start-time order."""
    records = []
    for path in paths:
        with open(path, encoding="utf8") as handle:
            records.append(json.load(handle))
    records.sort(key=lambda record: record["started"])
    by_workload: dict = defaultdict(list)
    for record in records:
        by_workload[record["workload"]].append(record)
    return by_workload


SETTINGS = ("seed", "seconds", "trace")


def mismatches(base: dict, head: dict) -> list[str]:
    """Why the two sides' records cannot be paired (empty when they can)."""
    problems = []
    for workload in sorted(set(base) | set(head)):
        left, right = base.get(workload, []), head.get(workload, [])
        if len(left) != len(right):
            problems.append(f"{workload}: {len(left)} base records, {len(right)} head records")
            continue
        for number, (b, h) in enumerate(zip(left, right), 1):
            for key in SETTINGS:
                if b[key] != h[key]:
                    problems.append(f"{workload} pair {number}: {key} {b[key]!r} (base) != {h[key]!r} (head)")
    return problems


def values(records: list[dict]) -> dict:
    """Metric -> its values in start-time order."""
    found: dict = defaultdict(list)
    for record in records:
        for name, metric in record["metrics"].items():
            found[name].append(metric["value"])
    return found


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    lower = better == "lower"

    def improves(new: float, old: float) -> bool:
        return new < old if lower else new > old

    base_q1, base_median, base_q3 = quartiles(base)
    head_q1, head_median, head_q3 = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(improves(h, b) for b, h in pairs)
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(head_median - base_median) > base_q3 - base_q1
        and improves(head_median, base_median)
    ):
        return "better"
    spread = max(
        (base_q3 - base_q1) / abs(base_median) if base_median else 0.0,
        (head_q3 - head_q1) / abs(head_median) if head_median else 0.0,
    )
    all_better = all(improves(h, b) for b in base for h in head)
    if spread > bound and not all_better:
        return "unresolved"
    if not base_median:
        return "within bound"
    worse_by = (head_median - base_median) / abs(base_median)
    if not lower:
        worse_by = -worse_by
    return "worse" if worse_by > bound else "within bound"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="records of the parent commit")
    parser.add_argument("--head", nargs="+", required=True, help="records of the change")
    args = parser.parse_args(argv)
    with open(HERE.parents[1] / "BENCHMARK.json", encoding="utf8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, head = load(args.base), load(args.head)
    problems = mismatches(base, head)
    if problems:
        print("compare.py: the records cannot be paired:", *problems, sep="\n  ", file=sys.stderr)
        return 2
    worse = False
    print(f"{'workload':14s} {'metric':32s} {'base median [q1, q3]':>34s} {'head median [q1, q3]':>34s}  verdict")
    for workload in sorted(base):
        base_values, head_values = values(base[workload]), values(head[workload])
        for name in sorted(set(base_values) & set(head_values)):
            metric = declared.get(name)
            if metric is None:
                continue
            left, right = base_values[name], head_values[name]
            result = verdict(left, right, metric["better"], metric["bound"]) if "bound" in metric else "-"
            worse |= result == "worse"
            b1, bm, b3 = quartiles(left)
            h1, hm, h3 = quartiles(right)
            print(
                f"{workload:14s} {name:32s} {bm:12.4f} [{b1:9.4f}, {b3:9.4f}] "
                f"{hm:12.4f} [{h1:9.4f}, {h3:9.4f}]  {result} (n={len(left)}/{len(right)})"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
