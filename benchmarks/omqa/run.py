#!/usr/bin/env python3
"""The OMQA benchmark: five workloads, end-to-end and per-layer metrics.

Run from the repository root; the program is imported from ``src``::

    python3 benchmarks/omqa/run.py --seed 1              # every workload, one child process each
    python3 benchmarks/omqa/run.py --seed 1 --trace      # per-layer metrics and tracing overhead
    python3 benchmarks/omqa/run.py --workload answer_cold --seed 1 --trace 0

The run length is ``run_seconds`` in ``BENCHMARK.json``; ``--seconds``
is accepted only with that value, so two commits always measure for the
same time.  A workload runs :data:`PASSES` passes (the service
:data:`SERVICE_PASSES`), each on a fresh set-up: the first times operations for its share of the run, the others
time the same operations again.  Each pass's times are scaled to a
reference host speed (:mod:`hostspeed`); ``setup_s`` is the median
set-up, and each operation's latency is its median over the passes.
Outputs are checked outside the timed intervals.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
times one pass, replays its operations on a fresh set-up with spans
around every layer (:mod:`trace`) and reports the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object::

    {"correct": true, "attempted": 1534, "failed": 0, "metrics": {"latency_p50_ms": {"value": 2.3, "unit": "ms"}, ...}}

Without ``--workload`` every workload runs in its own child process and
``metrics`` is keyed by workload, then by metric.  A full record of each
workload run (provenance, sample counts, per-pass latencies) is written
to ``benchmarks/omqa/results/``, and a traced run's spans to
``<record>-trace.json`` beside it.  The exit code is 0 only when every
output was correct.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import PROBE_EVERY, host_factor, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("answer_cold", "answer_warm", "materialize", "maintain", "service_mixed")
PASSES = 5
# Fewer, longer service passes: each starts a server, and its open loop
# must send the 100-odd queries a 90th percentile needs (at
# service_mixed.RATE).
SERVICE_PASSES = 3
# The tail percentile: the highest with ten samples beyond it on every
# workload (the service times about 180 queries a run).
TAIL = 90.0
RSS_AT_OP = 300
# A later pass may run this many times longer than the first before it
# is cut short (operations it did not reach are left out of every pass).
PASS_SLACK = 3.0


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _rank(q: float, count: int) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``count`` samples."""
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q``% at or below it."""
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


def supported_percentile(count: int, ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)) -> "float | None":
    """The highest percentile of ``ladder`` with at least ten samples beyond it."""
    for q in ladder:
        if count - _rank(q, count) >= 10:
            return q
    return None


def per_op(passes: "list[dict[int, float]]") -> "dict[int, float]":
    """Each operation's median latency over the passes, in operation order.

    ``passes`` maps operation index to latency, one dict per pass; only
    operations every pass ran count.
    """
    common = set(passes[0]).intersection(*passes[1:])
    return {index: statistics.median(p[index] for p in passes) for index in sorted(common)}


# ----------------------------------------------------------------------
# Timing loop (library workloads)
# ----------------------------------------------------------------------
@dataclass
class Phase:
    samples: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    rss_mb: float = 0.0


def measure(state, seconds: float, max_ops: "int | None" = None, tracer=None) -> Phase:
    """Time ``state.op(i).run()`` for ``i = 0, 1, ...`` until ``seconds`` pass.

    Preparing an operation and checking its output happen outside the
    timed interval; a raised exception or a failed check counts as a
    failure of that operation.  :func:`probe` runs every
    :data:`PROBE_EVERY` seconds between operations.  ``rss_mb`` is the
    process's peak resident size once :data:`RSS_AT_OP` operations are
    done (or at the end, if fewer ran), so a faster run that answers more
    queries does not read as a bigger one.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    index = 0
    probed = -math.inf
    while time.perf_counter() < deadline and (max_ops is None or index < max_ops):
        if time.perf_counter() - probed >= PROBE_EVERY:
            probed = time.perf_counter()
            phase.probes.append(probe())
        if index == RSS_AT_OP:
            phase.rss_mb = peak_rss_mb()
        op = state.op(index)
        output, error = None, None
        with tracer.op(index) if tracer is not None else nullcontext():
            started = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # noqa: BLE001 - a failed op is a result
                error = exc
            elapsed = time.perf_counter() - started
        phase.samples.append(elapsed)
        if error is None:
            try:
                if not op.after(output):
                    error = "output check failed"
            except Exception as exc:  # noqa: BLE001
                error = exc
        if error is not None:
            phase.failures.append(f"op {index}: {error!r}")
        index += 1
    if not phase.rss_mb:
        phase.rss_mb = peak_rss_mb()
    return phase


def timed_passes(setup, seconds: float) -> tuple[list[float], list[Phase], dict]:
    """:data:`PASSES` fresh set-ups, each timing the operations of the first.

    Returns the raw set-up durations, the passes, and the last state's info.
    """
    setup_s: list[float] = []
    phases: list[Phase] = []
    info: dict = {}
    length = seconds / PASSES
    for _ in range(PASSES):
        started = time.perf_counter()
        state = setup()
        setup_s.append(time.perf_counter() - started)
        try:
            if phases:
                phases.append(measure(state, PASS_SLACK * length, len(phases[0].samples)))
            else:
                phases.append(measure(state, length))
        finally:
            state.close()
        info = state.info
    return setup_s, phases, info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def latency_metrics(latencies, setup_s, throughput, rss_mb) -> dict:
    """The end-to-end metrics: name -> (value, unit, sample count)."""
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "throughput_ops_s": throughput,
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms", len(latencies)),
        "latency_p90_ms": (percentile(latencies, TAIL) * 1000, "ms", len(latencies)),
        "peak_rss_mb": rss_mb,
    }


def library_metrics(setup_s: list[float], phases: list[Phase], factors: list[float]) -> dict:
    """End-to-end metrics of the passes, each pass's times scaled by its factor."""
    latencies = list(per_op([
        {index: latency * factor for index, latency in enumerate(phase.samples)}
        for phase, factor in zip(phases, factors)
    ]).values())
    return latency_metrics(
        latencies,
        [seconds * factor for seconds, factor in zip(setup_s, factors)],
        (len(latencies) / sum(latencies), "ops/s", len(latencies)),
        (phases[0].rss_mb, "MB", 1),
    )


def service_metrics(runs, factors: list[float]) -> dict:
    """End-to-end metrics of the service passes, each pass's times scaled by its factor."""
    import service_mixed

    latencies = list(per_op([
        {s.index: s.latency * factor for s in run.open_samples if s.kind == "query"}
        for run, factor in zip(runs, factors)
    ]).values())
    closed = list(service_mixed.whole_blocks(per_op([
        {s.index: s.latency * factor for s in run.closed_samples}
        for run, factor in zip(runs, factors)
    ])).values())
    rss = [run.peak_rss_mb for run in runs]
    return latency_metrics(
        latencies,
        [run.setup_s * factor for run, factor in zip(runs, factors)],
        (len(closed) / sum(closed), "ops/s", len(closed)),
        (statistics.median(rss), "MB", len(rss)),
    )


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, ops: int, counters: Counter, harness: dict) -> dict:
    """The per-layer metrics: name -> (value, unit, sample count)."""
    import trace

    seconds, calls, values = trace.layer_totals(spans)
    metrics = {
        f"{layer}.ms_per_op": (seconds[layer] * 1000 / ops, "ms", calls[layer])
        for layer in trace.LAYERS
    }
    for layer in ("rewrite", "containment", "digest"):
        metrics[f"{layer}.calls_per_op"] = (calls[layer] / ops, "calls", ops)
    metrics["columnar_load.rows_per_op"] = (values["columnar_load"] / ops, "rows", ops)
    c = counters
    hits, misses = c["session.rewrite_cache_hits"], c["session.rewrite_cache_misses"]
    derived = {
        "rewrite.kept_per_produced": (ratio(c["rewrite.kept"], c["rewrite.produced"]), "ratio", c["rewrite.produced"]),
        "session.rewrite_hit_ratio": (ratio(hits, hits + misses), "ratio", hits + misses),
        "store.rows_scanned_per_op": (c["store.rows_scanned"] / ops, "rows", ops),
        "store.sql_queries_per_op": (c["store.sql_queries"] / ops, "queries", ops),
        "store.writes_per_op": (c["store.writes"] / ops, "writes", ops),
        "chase.matches_per_new_atom": (ratio(c["chase.matches"], c["chase.atoms_produced"]), "ratio", c["chase.atoms_produced"]),
        "plan.rules_skipped_per_op": (c["plan.rules_skipped"] / ops, "rules", ops),
        "columnar.fallback_rule_share": (
            ratio(c["columnar.fallback_rules"], c["columnar.rules"] + c["columnar.fallback_rules"]),
            "ratio", c["columnar.rules"] + c["columnar.fallback_rules"],
        ),
        "delta.rederived_per_overdeleted": (ratio(c["delta.rederived"], c["delta.overdeleted"]), "ratio", c["delta.overdeleted"]),
        "delta.rounds_per_op": (c["delta.rounds"] / ops, "rounds", ops),
    }
    metrics.update(derived)
    metrics.update(harness)
    return metrics


def layer_shares(spans, op_seconds: float) -> dict:
    """Each layer's self time as a share of the timed operations' time."""
    import trace

    seconds, _, _ = trace.layer_totals(spans)
    return {layer: round(seconds[layer] / op_seconds, 4) for layer in trace.LAYERS if seconds[layer]}


def overhead_ratio(traced: list[float], traced_probes, plain: list[float], plain_probes) -> float:
    """Traced over untraced time of the operations both runs performed, each at reference speed."""
    common = min(len(traced), len(plain))
    return ratio(
        sum(traced[:common]) * host_factor(traced_probes),
        sum(plain[:common]) * host_factor(plain_probes),
    )


# ----------------------------------------------------------------------
# Workload runners
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    attempted: int
    failures: list[str]
    metrics: dict
    info: dict = field(default_factory=dict)
    shares: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    # Kept in the record: the end-to-end metrics without host scaling,
    # and every pass's latencies (s) and probes.
    raw_metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)


def run_library(name: str, seed: int, seconds: float, traced: bool, **sizes) -> Outcome:
    import workloads

    def setup():
        return workloads.LIBRARY_WORKLOADS[name](seed, **sizes)

    if not traced:
        setup_s, phases, info = timed_passes(setup, seconds)
        factors = [host_factor(phase.probes) for phase in phases]
        return Outcome(
            attempted=sum(len(phase.samples) for phase in phases),
            failures=[failure for phase in phases for failure in phase.failures],
            metrics=library_metrics(setup_s, phases, factors),
            raw_metrics=library_metrics(setup_s, phases, [1.0] * len(phases)),
            info={**info, "host_factors": factors},
            samples={
                "passes": [phase.samples for phase in phases],
                "probes": [phase.probes for phase in phases],
            },
        )

    import trace

    state = setup()
    try:
        plain = measure(state, seconds / PASSES)
    finally:
        state.close()
    state = setup()
    tracer = trace.Tracer()
    try:
        before = state.counters()
        tracer.install()
        try:
            replay = measure(state, PASS_SLACK * seconds / PASSES, len(plain.samples), tracer)
        finally:
            tracer.uninstall()
        counters = state.counters()
        counters.subtract(before)
    finally:
        state.close()
    ops = len(replay.samples)
    harness = {
        "loadgen.late_p95_ms": (0.0, "ms", 0),
        "client.gap_ms_per_op": (0.0, "ms", 0),
        "trace.overhead_ratio": (
            overhead_ratio(replay.samples, replay.probes, plain.samples, plain.probes), "ratio", ops,
        ),
    }
    return Outcome(
        attempted=len(plain.samples) + ops,
        failures=plain.failures + replay.failures,
        metrics=layer_metrics(tracer.spans, ops, counters, harness),
        info=state.info,
        shares=layer_shares(tracer.spans, sum(replay.samples)),
        spans=tracer.spans,
    )


def run_service_workload(seed: int, seconds: float, traced: bool, trace_path: Path, **sizes) -> Outcome:
    import service_mixed

    workdir = RESULTS / "tmp"
    length = seconds / SERVICE_PASSES
    if not traced:
        runs = [service_mixed.run_pass(seed, length, SRC, workdir, **sizes) for _ in range(SERVICE_PASSES)]
        factors = [host_factor(run.probes) for run in runs]
        return Outcome(
            attempted=sum(run.attempted for run in runs),
            failures=[failure for run in runs for failure in run.failures],
            metrics=service_metrics(runs, factors),
            raw_metrics=service_metrics(runs, [1.0] * len(runs)),
            info={**runs[-1].info, "host_factors": factors},
            samples={
                "queries": [[(s.index, s.latency) for s in run.open_samples if s.kind == "query"] for run in runs],
                "closed": [[(s.index, s.latency) for s in run.closed_samples] for run in runs],
                "probes": [run.probes for run in runs],
            },
        )

    import trace

    plain = service_mixed.run_pass(seed, length, SRC, workdir, **sizes)
    spans_file = trace_path.with_name(trace_path.stem + "-server.json")
    run = service_mixed.run_pass(seed, length, SRC, workdir, trace_out=spans_file, **sizes)
    start, end = run.window
    spans = [span for span in trace.load_spans(spans_file) if start <= span.start <= end]
    spans_file.unlink()
    samples = run.open_samples + run.closed_samples
    ops = len(samples)
    client = sum(sample.service for sample in samples)
    server = sum(span.end - span.start for span in spans if span.parent is None)
    late = [sample.late for sample in plain.open_samples]
    harness = {
        "loadgen.late_p95_ms": (percentile(late, 95.0) * 1000, "ms", len(late)),
        "client.gap_ms_per_op": ((client - server) * 1000 / ops, "ms", ops),
        "trace.overhead_ratio": (
            overhead_ratio(
                [s.service for s in run.closed_samples], run.probes,
                [s.service for s in plain.closed_samples], plain.probes,
            ),
            "ratio", len(run.closed_samples),
        ),
    }
    return Outcome(
        attempted=plain.attempted + run.attempted,
        failures=plain.failures + run.failures,
        metrics=layer_metrics(spans, ops, Counter(run.counters), harness),
        info=run.info,
        shares=layer_shares(spans, client),
        spans=spans,
    )


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def commit_id() -> "str | None":
    """HEAD's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def record(workload: str, args, outcome: Outcome, started: str, missing: list[str]) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "provenance": {
            "commit": commit_id(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "failures": outcome.failures[:20],
        "missing_layers": missing,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": count}
            for name, (value, unit, count) in outcome.metrics.items()
        },
        "raw_metrics": {name: value for name, (value, _, _) in outcome.raw_metrics.items()},
        "tail_percentile_supported": supported_percentile(
            outcome.metrics.get("latency_p90_ms", (0, "", 0))[2]
        ),
        "layer_shares": outcome.shares,
        "info": outcome.info,
        "samples": outcome.samples,
    }


def run_one(args) -> int:
    started = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    stem = f"{started}-{args.workload}-s{args.seed}-t{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"{stem}-trace.json"
    traced = bool(args.trace)
    if args.workload == "service_mixed":
        outcome = run_service_workload(args.seed, args.seconds, traced, trace_path)
    else:
        outcome = run_library(args.workload, args.seed, args.seconds, traced)

    spec = benchmark_spec()
    declared = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    if sorted(outcome.metrics) != sorted(declared):
        raise SystemExit(
            f"metrics {sorted(outcome.metrics)} do not match BENCHMARK.json {sorted(declared)}"
        )
    missing = []
    if traced:
        import trace

        _, calls, _ = trace.layer_totals(outcome.spans)
        missing = trace.missing_layers(args.workload, calls)
        trace.dump_spans(outcome.spans, trace_path)

    doc = record(args.workload, args, outcome, started, missing)
    with open(RESULTS / f"{stem}.json", "w", encoding="utf8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)

    correct = not outcome.failures and not missing
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome.attempted} attempted, {len(outcome.failures)} failed")
    for failure in outcome.failures[:5]:
        print(f"#   {failure}")
    if missing:
        print(f"#   layers that recorded no span: {', '.join(missing)}")
    for name in declared:
        value, unit, count = outcome.metrics[name]
        print(f"#   {name:34s} {value:14.4f} {unit:8s} n={count}")
    if outcome.shares:
        print("#   self-time shares: " + ", ".join(f"{k}={v:.3f}" for k, v in sorted(outcome.shares.items(), key=lambda kv: -kv[1])))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]} for name in declared},
    }))
    return 0 if correct else 1


def run_child(command: list[str]) -> tuple[int, str]:
    """Run one workload's child process; returns its exit code and standard output."""
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()
    return child.returncode, output


def run_all(args) -> int:
    """Every workload in its own child process: each child's table, then one JSON line."""
    results, failed = {}, False
    for workload in WORKLOADS:
        code, output = run_child([
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ])
        lines = output.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[workload] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        failed |= code != 0 or not results[workload]["correct"]
    print(json.dumps({
        "correct": not failed,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {workload: r["metrics"] for workload, r in results.items()},
    }))
    return 1 if failed else 0


def _terminate(signum, frame):
    # Unwind through every ``finally`` so servers are stopped and reaped.
    raise SystemExit(128 + signum)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="OMQA benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="must equal run_seconds in BENCHMARK.json, which fixes the run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    run_seconds = benchmark_spec()["run_seconds"]
    if args.seconds is not None and args.seconds != run_seconds:
        print(f"run.py: --seconds {args.seconds:g} is not run_seconds ({run_seconds}) of BENCHMARK.json", file=sys.stderr)
        return 2
    args.seconds = run_seconds
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
