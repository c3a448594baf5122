"""The service workload: ``python -m repro serve`` under mixed HTTP traffic.

One ``repro serve`` subprocess at its shipped defaults, with its
databases in a temporary ``--db-dir`` under the benchmark's results
directory, serves the Medical + Stock theory (its chase terminates) over
a seeded base.  It is started through ``serve.py``, which times the
host-speed probe inside the server process.
The traffic mix is 80% queries (backends rotated), 15% appends and 5%
retracts; appends alternate between a patient and an investor, and each
retract removes the facts of the oldest append scheduled at least
:data:`RETRACT_LAG` operations earlier.

Phase 1 is an open loop: seeded Poisson arrivals at :data:`RATE`
operations per second over two keep-alive connections, one carrying the
queries and one the writes, each operation timed from the moment it was
due.  Its query latencies are the workload's latency metrics: writes
reach them only through the server they share (a query does not wait
behind a write on the client side, where one slow retract would decide
the tail).  Phase 2 is a closed loop on one connection, which sends the
next operation of the mixed plan as soon as the last one returns; it
measures the server's capacity for the mix.  (The server computes under
one interpreter lock, so a second connection added only about 6% to
that capacity, and made it vary twice as much from run to run.)  After
both, the final base is reconstructed from the plan and every named
query is asked on all three backends; each answer must equal a fresh
in-process ``OMQASession`` answer over that base.

The server is stopped on every exit path (SIGTERM, then SIGKILL after a
grace period) and its directory removed.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    MEDICAL_QUERIES,
    MEDICAL_RULES,
    STOCK_QUERIES,
    STOCK_RULES,
    answer_rows,
    medical_facts,
    stock_facts,
)

RATE = 45.0
RETRACT_LAG = 50
# The open loop's share of a pass; the closed loop gets the rest.
OPEN_SHARE = 0.75
# 80% queries, 15% appends, 5% retracts.
BLOCK = ("query",) * 16 + ("append",) * 3 + ("retract",)
BACKENDS = ("memory", "columnar", "sqlite")
QUERIES = {**MEDICAL_QUERIES, **STOCK_QUERIES}
RULES = MEDICAL_RULES + STOCK_RULES
HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# The traffic plan
# ----------------------------------------------------------------------
@dataclass
class PlannedOp:
    kind: str  # "query" | "append" | "retract"
    method: str
    path: str
    body: bytes
    facts: tuple[str, ...] = ()


class Plan:
    """The seeded operation sequence and arrival times, made on demand.

    Kinds come in shuffled blocks of :data:`BLOCK`, queries cycle
    through shuffled rounds of every (query, backend) pair and writes
    follow a fixed pattern, so any stretch of the plan has the same mix
    whatever the seed (a write costs about ten queries); the seed decides
    the order, the arrival times and the constants written.
    """

    def __init__(self, seed: int, theory_id: str) -> None:
        self.rng = random.Random(f"service-plan:{seed}")
        self.arrivals = random.Random(f"service-arrivals:{seed}")
        self.theory_id = theory_id
        self.ops: list[PlannedOp] = []
        self.dues: list[float] = []
        self.kinds: list[str] = []
        self.queries: list[tuple[str, str]] = []
        self.open_appends: list[int] = []
        self.appends = 0

    def _make(self, index: int) -> PlannedOp:
        rng = self.rng
        if len(self.kinds) <= index:
            self.kinds.extend(rng.sample(BLOCK, len(BLOCK)))
        kind = self.kinds[index]
        eligible = [i for i in self.open_appends if i <= index - RETRACT_LAG]
        if kind == "retract" and eligible:
            target = eligible[0]
            self.open_appends.remove(target)
            facts = self.ops[target].facts
            body = {"instance": {"format": "repro/instance@1", "facts": list(facts)}}
            return PlannedOp(
                "retract", "DELETE", f"/theories/{self.theory_id}/facts",
                json.dumps(body).encode(), facts,
            )
        if kind == "append":
            if self.appends % 2 == 0:
                facts = (f"Patient(np{index})", f"Diagnosed(np{index}, cond{rng.randrange(7)})")
            else:
                facts = (f"Investor(ni{index})", f"Owns(ni{index}, stk{rng.randrange(9)})")
            self.appends += 1
            self.open_appends.append(index)
            body = {
                "mode": "append",
                "instance": {"format": "repro/instance@1", "facts": list(facts)},
            }
            return PlannedOp(
                "append", "POST", f"/theories/{self.theory_id}/instances",
                json.dumps(body).encode(), facts,
            )
        if not self.queries:
            pairs = [(name, backend) for name in sorted(QUERIES) for backend in BACKENDS]
            self.queries = rng.sample(pairs, len(pairs))
        name, backend = self.queries.pop()
        return PlannedOp("query", "POST", f"/theories/{self.theory_id}/query", query_body(name, backend))

    def op(self, index: int) -> PlannedOp:
        while len(self.ops) <= index:
            self.ops.append(self._make(len(self.ops)))
        return self.ops[index]

    def dues_within(self, seconds: float) -> list[float]:
        """Poisson arrival offsets (s) of every operation due before ``seconds``."""
        while not self.dues or self.dues[-1] < seconds:
            last = self.dues[-1] if self.dues else 0.0
            self.dues.append(last + self.arrivals.expovariate(RATE))
        return [due for due in self.dues if due < seconds]

    def final_facts(self, base: list[str], sent: int) -> list[str]:
        """The base after the first ``sent`` operations took effect."""
        facts = dict.fromkeys(base)
        for op in self.ops[:sent]:
            for fact in op.facts:
                if op.kind == "append":
                    facts[fact] = None
                elif op.kind == "retract":
                    facts.pop(fact, None)
        return list(facts)


def query_body(name: str, backend: str) -> bytes:
    return json.dumps(
        {"query": {"format": "repro/query@1", "query": QUERIES[name]}, "backend": backend}
    ).encode()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection speaking Content-Length JSON."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        return self

    async def call(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """One exchange; returns the status and the raw response body."""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, (await self.reader.readexactly(length) if length else b"")

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None


async def expect_ok(conn: Connection, method: str, path: str, body=None) -> object:
    status, raw = await conn.call(method, path, json.dumps(body).encode() if body is not None else b"")
    if status // 100 != 2:
        raise RuntimeError(f"{method} {path} answered {status}: {raw[:500]!r}")
    return json.loads(raw)


# ----------------------------------------------------------------------
# Load loops (clock and sleep are injectable for tests)
# ----------------------------------------------------------------------
@dataclass
class Sample:
    index: int
    at: float  # due (open loop) or send (closed loop) time on the loop's clock
    latency: float  # from due time (open loop) or send time (closed loop)
    service: float  # from send to response
    late: float = 0.0  # how late the generator issued the op
    kind: str = ""  # the open loop's lane: "query" or "write"


async def open_loop(dues, send, lanes: dict, lane_of, clock=time.perf_counter, sleep=asyncio.sleep):
    """Issue operation ``i`` at ``start + dues[i]`` on ``lanes[lane_of(i)]``.

    ``send(conn, i)`` performs one request; a lane carries one request at
    a time, in issue order.  Latency is measured from the due time, so a
    stall that delays later requests counts against them; ``late`` is how
    far behind the schedule the generator itself issued the operation.
    """
    locks = {key: asyncio.Lock() for key in lanes}
    samples: list[Sample] = []
    start = clock()

    async def one(index: int, due: float, late: float) -> None:
        key = lane_of(index)
        async with locks[key]:
            sent = clock()
            await send(lanes[key], index)
        done = clock()
        samples.append(Sample(index, due, done - due, done - sent, late, key))

    tasks = []
    for index, offset in enumerate(dues):
        due = start + offset
        wait = due - clock()
        if wait > 0:
            await sleep(wait)
        tasks.append(asyncio.ensure_future(one(index, due, clock() - due)))
    await asyncio.gather(*tasks)
    samples.sort(key=lambda sample: sample.index)
    return samples


async def closed_loop(indices, send, conn, seconds, clock=time.perf_counter):
    """Send the next of ``indices`` on ``conn`` as soon as the last one returns."""
    samples: list[Sample] = []
    end = clock() + seconds
    while clock() < end:
        index = next(indices)
        sent = clock()
        await send(conn, index)
        done = clock()
        samples.append(Sample(index, sent, done - sent, done - sent))
    return samples


def whole_blocks(latencies: "dict[int, float]") -> "dict[int, float]":
    """The latencies of the operations in complete blocks of the plan.

    A write costs about ten queries, so a capacity counted over part of
    a block would depend on which kinds that part happened to hold.
    """
    size = len(BLOCK)
    first = -(-min(latencies) // size) * size
    end = (max(latencies) + 1) // size * size
    return {index: latency for index, latency in latencies.items() if first <= index < end}


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` subprocess (optionally traced) on a free port.

    ``probes`` holds the server's ``(time, seconds)`` host-speed probes
    once it has stopped.
    """

    def __init__(self, src: Path, workdir: Path, trace_out: "Path | None" = None) -> None:
        self.db_dir = Path(tempfile.mkdtemp(prefix="db-", dir=workdir))
        self.probe_file = self.db_dir / "probes.json"
        self.probes: list[tuple[float, float]] = []
        command = [sys.executable, str(HERE / "serve.py"), "--probe-out", str(self.probe_file)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["serve", "--port", "0", "--json", "--db-dir", str(self.db_dir / "db")]
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=str(src.parent))
        try:
            self.port = self._announced_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _announced_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        buffer = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("server did not announce its address")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError("server closed stdout before announcing its address")
            buffer += chunk
            try:
                return int(json.loads(buffer)["port"])
            except ValueError:
                continue

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """SIGTERM (graceful drain), SIGKILL after a grace period; always reaps."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            if self.probe_file.is_file():
                self.probes = [tuple(row) for row in json.loads(self.probe_file.read_text())]
        finally:
            self.proc.stdout.close()
            shutil.rmtree(self.db_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
@dataclass
class ServicePass:
    setup_s: float = 0.0
    open_samples: list[Sample] = field(default_factory=list)
    closed_samples: list[Sample] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)
    counters: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    probes: list[float] = field(default_factory=list)  # the server's, during the two phases


async def _start(src: Path, workdir: Path, base_facts: list[str], trace_out) -> tuple[Server, Connection, str]:
    server = Server(src, workdir, trace_out)
    conn = None
    try:
        conn = await Connection(server.port).open()
        await expect_ok(conn, "GET", "/healthz")
        registered = await expect_ok(
            conn, "POST", "/theories",
            {"theory": {"format": "repro/theory@1", "name": "medical-stock", "rules": list(RULES)}},
        )
        theory_id = registered["id"]
        await expect_ok(
            conn, "POST", f"/theories/{theory_id}/instances",
            {"mode": "replace", "instance": {"format": "repro/instance@1", "facts": base_facts}},
        )
        return server, conn, theory_id
    except BaseException:
        if conn is not None:
            await conn.close()
        server.stop()
        raise


async def _run(seed, seconds, src, workdir, trace_out, scale) -> ServicePass:
    rng = random.Random(f"service-db:{seed}")
    base_facts = medical_facts(rng, scale) + stock_facts(rng, scale)
    run = ServicePass(info={"facts": len(base_facts), "rules": len(RULES)})
    server = conn = writer = None
    try:
        started = time.perf_counter()
        server, conn, theory_id = await _start(src, workdir, base_facts, trace_out)
        run.setup_s = time.perf_counter() - started
        plan = Plan(seed, theory_id)
        writer = await Connection(server.port).open()
        before = (await expect_ok(conn, "GET", "/metrics"))["process"]

        async def send(connection: Connection, index: int) -> None:
            op = plan.op(index)
            try:
                status, _ = await connection.call(op.method, op.path, op.body)
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                run.failures.append(f"op {index} ({op.kind}): {exc!r}")
                return
            if status // 100 != 2:
                run.failures.append(f"op {index} ({op.kind}): HTTP {status}")

        dues = plan.dues_within(seconds * OPEN_SHARE)
        for index in range(len(dues)):
            plan.op(index)

        def upcoming():
            # Requests are built here, outside the timed interval.
            for index in itertools.count(len(dues)):
                plan.op(index)
                yield index

        window_start = time.perf_counter()
        run.open_samples = await open_loop(
            dues, send, {"query": conn, "write": writer},
            lambda i: "query" if plan.op(i).kind == "query" else "write",
        )
        run.closed_samples = await closed_loop(
            upcoming(), send, conn, seconds * (1 - OPEN_SHARE)
        )
        run.window = (window_start, time.perf_counter())
        after = (await expect_ok(conn, "GET", "/metrics"))["process"]
        run.counters = {name: after.get(name, 0) - before.get(name, 0) for name in after}
        sent = len(run.open_samples) + len(run.closed_samples)
        run.attempted = sent
        run.failures.extend(await _check_final(conn, plan, base_facts, sent, theory_id))
        run.attempted += len(QUERIES) * len(BACKENDS)
        run.peak_rss_mb = server.peak_rss_mb()
    finally:
        try:
            for connection in (conn, writer):
                if connection is not None:
                    await connection.close()
        finally:
            if server is not None:
                server.stop()
    start, end = run.window
    run.probes = [seconds for at, seconds in server.probes if start <= at <= end]
    return run


async def _check_final(conn, plan: Plan, base_facts, sent: int, theory_id: str) -> list[str]:
    """Every named query on every backend against a fresh in-process session."""
    from repro import OMQASession, parse_instance, parse_query, parse_theory

    final = parse_instance("\n".join(plan.final_facts(base_facts, sent)))
    session = OMQASession(parse_theory("\n".join(RULES)))
    failures = []
    try:
        for name in sorted(QUERIES):
            want = answer_rows(session.answer(parse_query(QUERIES[name]), final, "auto"))
            for backend in BACKENDS:
                status, raw = await conn.call("POST", f"/theories/{theory_id}/query", query_body(name, backend))
                if status // 100 != 2 or json.loads(raw)["answers"] != want:
                    failures.append(f"final {name} on {backend}: answers differ from a fresh session")
    finally:
        session.close()
    return failures


def run_pass(
    seed: int,
    seconds: float,
    src: Path,
    workdir: Path,
    trace_out: "Path | None" = None,
    scale: int = 250,
) -> ServicePass:
    """Set up a fresh server, run both phases for ``seconds``, check, stop it.

    :data:`OPEN_SHARE` of ``seconds`` goes to the open loop, the rest to
    the closed loop.  With ``trace_out`` the server is the traced one and
    writes its spans there on shutdown.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    return asyncio.run(_run(seed, seconds, src, workdir, trace_out, scale))
