"""Concurrent-load generator for the OMQA service (``repro loadgen``).

Drives N asyncio clients through deterministic mixed answer/append
traffic against an :class:`~repro.service.server.OMQAService` — spun up
in-process by default, or an already-running server via ``url`` — and
reports throughput, p50/p99 latency and a *correctness verdict*: after
every client has drained, each query is answered once more through the
server on every backend and its digest is compared against a fresh
from-scratch :class:`~repro.rewriting.session.OMQASession` answer over
the final instance (which the generator reconstructs locally — the
traffic plan is seeded and deterministic, so it knows exactly which
facts were appended).

The plan: client *k*'s op *i* is an append when ``i % append_every ==
append_every - 1`` (fresh constants namespaced by client, so appends
from different clients never collide) and otherwise a query, rotating
through :data:`QUERIES` and the three backends.  Appends change answers
mid-run — interleaved responses are only checked for HTTP success —
but the *final* state is unique regardless of interleaving, which is
what the digest comparison (and ``tests/test_service.py``) pins.

Latency numbers are hardware- and scheduler-dependent, so tests check
only request counts, error counts, the compile count and the final
digests.
"""

from __future__ import annotations

import asyncio
import time
from typing import Iterable

from ..logic.instance import Instance
from ..logic.parser import parse_instance, parse_query, parse_theory

LOADGEN_THEORY_TEXT = (
    "EnrolledIn(s, c) -> Student(s)\n"
    "TaughtBy(c, p) -> Professor(p)\n"
    "Professor(p) -> Person(p)\n"
    "Student(s) -> Person(s)"
)

QUERIES = (
    ("students", "q(s) := Student(s)"),
    ("persons", "q(p) := Person(p)"),
    ("enrolments", "q(s, c) := EnrolledIn(s, c)"),
)

BACKENDS = ("memory", "columnar", "sqlite")


def seed_instance(students: int = 12, courses: int = 4) -> Instance:
    """The deterministic base instance every loadgen run starts from."""
    facts = []
    for index in range(students):
        facts.append(f"EnrolledIn(s{index}, c{index % courses})")
    for course in range(courses):
        facts.append(f"TaughtBy(c{course}, p{course % 2})")
    return parse_instance(". ".join(facts))


def append_facts(client: int, op: int) -> Instance:
    """The facts client ``client`` appends at op ``op`` (collision-free)."""
    return parse_instance(
        f"EnrolledIn(u{client}_{op}, d{client}). "
        f"TaughtBy(d{client}, w{client})"
    )


def _percentile(samples: "list[float]", fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def expected_final_instance(
    clients: int, ops_per_client: int, append_every: int
) -> Instance:
    final = seed_instance().copy()
    for client in range(clients):
        for op in range(ops_per_client):
            if op % append_every == append_every - 1:
                final.update(append_facts(client, op))
    return final


def expected_digests(final: Instance) -> dict[str, str]:
    """Fresh from-scratch session answers over the final instance."""
    from ..rewriting.session import OMQASession
    from ..service.registry import answers_digest

    session = OMQASession(parse_theory(LOADGEN_THEORY_TEXT, name="loadgen"))
    digests = {}
    for name, text in QUERIES:
        answers = session.answer(parse_query(text), final, strategy="auto")
        digests[name] = answers_digest(answers)
    session.close()
    return digests


async def _drive(
    host: str,
    port: int,
    clients: int,
    ops_per_client: int,
    append_every: int,
) -> dict:
    from ..service.client import ServiceClient

    setup = ServiceClient(host, port)
    registered = await setup.register_theory(
        parse_theory(LOADGEN_THEORY_TEXT, name="loadgen")
    )
    theory_id = registered["id"]
    await setup.upload_facts(theory_id, seed_instance())

    latencies: "list[float]" = []
    ops = {"queries": 0, "appends": 0}
    errors: "list[str]" = []

    async def client_task(client_index: int) -> None:
        client = ServiceClient(host, port)
        try:
            for op in range(ops_per_client):
                started = time.perf_counter()
                try:
                    if op % append_every == append_every - 1:
                        await client.append_facts(
                            theory_id, append_facts(client_index, op)
                        )
                        ops["appends"] += 1
                    else:
                        name, text = QUERIES[(client_index + op) % len(QUERIES)]
                        backend = BACKENDS[(client_index + op) % len(BACKENDS)]
                        await client.query(
                            theory_id, parse_query(text), backend=backend
                        )
                        ops["queries"] += 1
                except Exception as exc:  # noqa: BLE001 — tally, don't die
                    errors.append(f"client {client_index} op {op}: {exc}")
                latencies.append(time.perf_counter() - started)
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(client_task(i) for i in range(clients)))
    elapsed = time.perf_counter() - started

    # Quiesced: the final state is unique, whatever the interleaving.
    final_digests: dict[str, dict[str, str]] = {}
    for backend in BACKENDS:
        final_digests[backend] = {}
        for name, text in QUERIES:
            document = await setup.query(
                theory_id, parse_query(text), backend=backend
            )
            final_digests[backend][name] = document["digest"]
    metrics = await setup.metrics()
    theory_metrics = metrics["theories"][theory_id]
    await setup.close()

    want = expected_digests(
        expected_final_instance(clients, ops_per_client, append_every)
    )
    digests_match = all(
        final_digests[backend] == want for backend in BACKENDS
    )
    requests = len(latencies)
    return {
        "clients": clients,
        "ops_per_client": ops_per_client,
        "append_every": append_every,
        "requests": requests,
        "errors": len(errors),
        "error_samples": errors[:5],
        "ops": dict(ops),
        "seconds": round(elapsed, 6),
        "throughput_rps": round(requests / elapsed, 3) if elapsed else 0.0,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1000, 3),
            "p99": round(_percentile(latencies, 0.99) * 1000, 3),
            "max": round(max(latencies, default=0.0) * 1000, 3),
        },
        "final_digests": want,
        "backend_digests": final_digests,
        "digests_match": digests_match,
        "journal_mode": theory_metrics["journal_mode"],
        "rewrite_cache_misses": theory_metrics["counters"].get(
            "session.rewrite_cache_misses", 0
        ),
        "rewrite_cache_hits": theory_metrics["counters"].get(
            "session.rewrite_cache_hits", 0
        ),
    }


async def _run_async(
    clients: int,
    ops_per_client: int,
    append_every: int,
    workers: int,
    host: "str | None",
    port: "int | None",
) -> dict:
    if host is not None and port is not None:
        return await _drive(host, port, clients, ops_per_client, append_every)
    from ..service.server import OMQAService

    service = OMQAService(port=0, workers=workers)
    await service.start()
    try:
        report = await _drive(
            service.host, service.port, clients, ops_per_client, append_every
        )
        report["in_process"] = True
        report["workers"] = workers
        return report
    finally:
        await service.shutdown()


def run_loadgen(
    clients: int = 8,
    ops_per_client: int = 24,
    append_every: int = 6,
    workers: int = 4,
    quick: bool = False,
    host: "str | None" = None,
    port: "int | None" = None,
) -> dict:
    """Run the load generator and return the report document.

    ``quick`` shrinks the plan (4 clients × 12 ops) for CI smoke runs;
    ``host``/``port`` target an already-running server instead of the
    default in-process one.
    """
    if quick:
        clients = min(clients, 4)
        ops_per_client = min(ops_per_client, 12)
    return asyncio.run(
        _run_async(clients, ops_per_client, append_every, workers, host, port)
    )
