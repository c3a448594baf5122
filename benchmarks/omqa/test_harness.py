"""Tests of the benchmark harness itself (not of the program).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/omqa -q
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import heapq
import itertools
import json
import sys
import time
from collections import Counter

import pytest

import compare
import hostspeed
import run
import service_mixed
import trace
import workloads

sys.path.insert(0, str(run.SRC))

TINY = {
    "answer_cold": {"scale": 10},
    "answer_warm": {"scale": 20},
    "materialize": {"tc_nodes": (6, 8), "td_length": (2, 3)},
    "maintain": {"nodes": 8, "edges": 12, "pairs": None},
}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 95) == 95
    assert run.percentile([7.0], 95) == 7.0


@pytest.mark.parametrize(
    "count, expected",
    [(10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (20, 50.0), (19, None)],
)
def test_supported_percentile_leaves_ten_samples_beyond(count, expected):
    assert run.supported_percentile(count) == expected


def test_host_factor_scales_the_median_probe_to_the_reference():
    reference = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.host_factor([2 * reference, 2 * reference, 9 * reference]) == 0.5


def test_per_op_takes_each_operation_median_over_the_passes_that_ran_it():
    passes = [{0: 1.0, 1: 5.0, 2: 9.0}, {0: 3.0, 1: 4.0}, {0: 2.0, 1: 6.0, 2: 1.0}]
    assert run.per_op(passes) == {0: 2.0, 1: 5.0}


def test_capacity_counts_whole_blocks_of_the_plan():
    size = len(service_mixed.BLOCK)
    latencies = {index: 1.0 for index in range(size - 3, 3 * size + 5)}
    assert sorted(service_mixed.whole_blocks(latencies)) == list(range(size, 3 * size))


# ----------------------------------------------------------------------
# Open loop under a virtual clock
# ----------------------------------------------------------------------
class VirtualClock:
    """Time that moves only when every task is asleep."""

    def __init__(self) -> None:
        self.now = 0.0
        self._sleepers: list = []
        self._order = itertools.count()

    def __call__(self) -> float:
        return self.now

    async def sleep(self, delay: float) -> None:
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(self._sleepers, (self.now + delay, next(self._order), future))
        await future

    async def run(self, coroutine):
        task = asyncio.ensure_future(coroutine)
        while not task.done():
            for _ in range(20):
                await asyncio.sleep(0)
            if self._sleepers and not task.done():
                wake, _, future = heapq.heappop(self._sleepers)
                self.now = max(self.now, wake)
                future.set_result(None)
        return task.result()


def _open_loop(dues, costs, lane_of):
    clock = VirtualClock()

    async def send(conn, index):
        await clock.sleep(costs[index])

    lanes = {"query": "q", "write": "w"}
    return asyncio.run(
        clock.run(service_mixed.open_loop(dues, send, lanes, lane_of, clock=clock, sleep=clock.sleep))
    )


def test_open_loop_latency_counts_from_the_due_time():
    # One lane, each request takes 0.1 s: the second and third are due
    # while the lane is busy, and their wait is part of their latency.
    samples = _open_loop([0.0, 0.05, 0.10], [0.1, 0.1, 0.1], lambda i: "query")
    assert [round(s.latency, 9) for s in samples] == [0.1, 0.15, 0.2]
    assert [round(s.service, 9) for s in samples] == [0.1, 0.1, 0.1]
    assert [s.late for s in samples] == [0.0, 0.0, 0.0]
    assert [s.at for s in samples] == [0.0, 0.05, 0.10]


def test_open_loop_lanes_do_not_wait_for_each_other():
    samples = _open_loop([0.0, 0.01], [0.5, 0.1], lambda i: "write" if i == 0 else "query")
    assert round(samples[0].latency, 9) == 0.5
    assert round(samples[1].latency, 9) == 0.1


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        trace.Span(1, "a", 0.0, 10.0, None, 1),
        trace.Span(2, "b", 1.0, 4.0, 1, 1),
        trace.Span(3, "c", 3.0, 6.0, 1, 1),  # overlaps b (another thread)
        trace.Span(4, "d", 2.0, 3.0, 2, 1),
        trace.Span(5, "e", 9.0, 12.0, 1, 1),  # runs past its parent
    ]
    own = trace.self_times(spans)
    assert own == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}


def test_spans_cross_the_thread_pool_hop():
    tracer = trace.Tracer(record_all=True)
    child = tracer.wrap("repro.service.registry:TheoryEntry.answer", lambda: time.sleep(0.05))
    with trace.PropagatingExecutor(max_workers=1) as pool:
        parent = tracer.wrap("repro.service.app:ServiceApp.dispatch", lambda: pool.submit(child).result())
        parent()
    by_name = {span.name: span for span in tracer.spans}
    inner = by_name["repro.service.registry:TheoryEntry.answer"]
    outer = by_name["repro.service.app:ServiceApp.dispatch"]
    assert inner.parent == outer.id
    assert inner.op == outer.op == outer.id
    seconds, calls, _ = trace.layer_totals(tracer.spans)
    assert calls == Counter({"registry": 1, "service": 1})
    assert seconds["registry"] >= 0.05
    assert seconds["service"] < 0.02


def test_spans_outside_an_operation_are_not_recorded():
    tracer = trace.Tracer()
    fn = tracer.wrap("repro.chase.engine:chase", lambda: 3)
    fn()
    with tracer.op(7):
        assert fn() == 3
    assert [(span.op, span.value) for span in tracer.spans] == [(7, 3)]


def test_missing_layer_fails_the_traced_run():
    assert trace.missing_layers("maintain", Counter()) == ["delta"]
    assert trace.missing_layers("maintain", Counter({"delta": 2})) == []


def test_install_reaches_every_binding_and_uninstall_restores_it():
    import repro
    import repro.rewriting.engine
    import repro.rewriting.session

    original = repro.rewriting.engine.rewrite
    tracer = trace.Tracer().install()
    try:
        assert repro.rewriting.session.rewrite is repro.rewriting.engine.rewrite is not original
        assert repro.rewriting.session.OMQASession.answer.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert repro.rewriting.session.rewrite is original
    assert not hasattr(repro.rewriting.session.OMQASession.answer, "__wrapped__")


# ----------------------------------------------------------------------
# Workloads at tiny sizes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_checks_pass_at_tiny_size(name):
    state = workloads.LIBRARY_WORKLOADS[name](3, **TINY[name])
    try:
        phase = run.measure(state, seconds=30, max_ops=24)
    finally:
        state.close()
    assert len(phase.samples) == 24
    assert phase.failures == []
    assert phase.probes


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_workload_fires_its_expected_layers(name):
    state = workloads.LIBRARY_WORKLOADS[name](3, **TINY[name])
    tracer = trace.Tracer().install()
    try:
        phase = run.measure(state, seconds=30, max_ops=12, tracer=tracer)
    finally:
        tracer.uninstall()
        state.close()
    assert phase.failures == []
    _, calls, _ = trace.layer_totals(tracer.spans)
    assert trace.missing_layers(name, calls) == []


def test_service_workload_at_tiny_size(tmp_path):
    outcome = service_mixed.run_pass(seed=3, seconds=2.0, src=run.SRC, workdir=tmp_path, scale=20)
    assert outcome.failures == []
    assert any(sample.kind == "query" for sample in outcome.open_samples)
    assert outcome.closed_samples
    assert outcome.probes  # the server's own, taken during the two phases
    assert list(tmp_path.iterdir()) == []  # the server's directory is gone


def test_wrong_output_fails_its_check():
    state = workloads.setup_maintain(3, nodes=8, edges=12, pairs=None)
    try:
        op = state.op(0)
        outcome = op.run()
        # A maintained fixpoint that lost an atom must fail the check.
        damaged = outcome.result.instance.copy()
        damaged.discard(next(iter(damaged)))
        broken = dataclasses.replace(
            outcome, result=dataclasses.replace(outcome.result, instance=damaged)
        )
        assert op.after(broken) is False
    finally:
        state.close()


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------
@pytest.mark.parametrize("traced", [0, 1])
def test_result_metrics_are_declared_in_benchmark_json(traced, capsys):
    before = set(run.RESULTS.glob("*.json")) if run.RESULTS.exists() else set()
    args = argparse.Namespace(workload="materialize", seed=2, seconds=2.0, trace=traced)
    assert run.run_one(args) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    spec = run.benchmark_spec()
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == declared
    written = sorted(set(run.RESULTS.glob("*.json")) - before)
    records = [path for path in written if not path.name.endswith("-trace.json")]
    assert len(records) == 1
    record = json.loads(records[0].read_text())
    assert set(record["metrics"]) == set(declared)
    assert record["provenance"]["nproc"] and record["seed"] == 2
    for path in written:
        path.unlink()


def test_run_length_is_fixed_by_benchmark_json(capsys):
    run_seconds = run.benchmark_spec()["run_seconds"]
    assert run.main(["--workload", "materialize", "--seconds", str(run_seconds + 1)]) == 2
    assert "run_seconds" in capsys.readouterr().err


def test_all_workloads_line_keys_metrics_by_workload(monkeypatch, capsys):
    commands = []

    def fake_child(command):
        commands.append(command)
        workload = command[command.index("--workload") + 1]
        metrics = {"setup_s": {"value": len(workload), "unit": "s"}}
        line = {"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}
        return 0, f"# {workload} table\n{json.dumps(line)}\n"

    monkeypatch.setattr(run, "run_child", fake_child)
    assert run.run_all(argparse.Namespace(seed=4, trace=0)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line for line in lines if line.startswith("#")] == [f"# {w} table" for w in run.WORKLOADS]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] == 2 * len(run.WORKLOADS)
    assert last["metrics"] == {w: {"setup_s": {"value": len(w), "unit": "s"}} for w in run.WORKLOADS}
    assert all("--seconds" not in command for command in commands)


def _record(tmp_path, name, workload="maintain", seed=1, seconds=20, traced=0, value=1.0):
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
        "started": name, "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("setting", [{"seed": 2}, {"seconds": 10}, {"traced": 1}])
def test_compare_refuses_pairs_run_with_other_settings(tmp_path, setting, capsys):
    base = [_record(tmp_path, "a1"), _record(tmp_path, "a2")]
    head = [_record(tmp_path, "b1"), _record(tmp_path, "b2", **setting)]
    assert compare.main(["--base", *base, "--head", *head]) == 2
    assert "pair 2" in capsys.readouterr().err
    head = [_record(tmp_path, "c1"), _record(tmp_path, "c2", value=1.01)]
    assert compare.main(["--base", *base, "--head", *head]) == 0
