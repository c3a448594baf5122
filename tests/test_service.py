"""End-to-end tests for repro.service (the acceptance criteria live here).

The headline test drives two concurrent asyncio clients against one
sqlite-WAL theory — one appending facts while both answer the same CQ —
and requires every single response to be digest-identical to a fresh
from-scratch ``OMQASession.answer()`` over the final instance, with
``/metrics`` showing exactly one rewriting compile for the shared query
shape (the single-flight pin).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.logic import parse_instance, parse_query, parse_theory
from repro.rewriting import OMQASession
from repro.service import (
    OMQAService,
    ServiceClient,
    ServiceError,
    answers_digest,
)

UNIVERSITY = (
    "EnrolledIn(s, c) -> Student(s)\n"
    "TaughtBy(c, p) -> Professor(p)\n"
    "Professor(p) -> Person(p)"
)

SEED = "EnrolledIn(ann, cs1). TaughtBy(cs1, turing). TaughtBy(cs2, hopper)"


def run(coro):
    return asyncio.run(coro)


async def _with_service(body, **service_kwargs):
    service = OMQAService(port=0, **service_kwargs)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.shutdown()


class TestEndToEnd:
    def test_concurrent_append_and_answer_digest_identical(self, tmp_path):
        """The ISSUE's acceptance criterion, verbatim."""

        async def body(service):
            theory = parse_theory(UNIVERSITY, name="uni")
            query = parse_query("q(p) := Person(p)")
            setup = await ServiceClient(service.host, service.port).connect()
            tid = (await setup.register_theory(theory))["id"]
            await setup.upload_facts(tid, parse_instance(SEED))
            info = await setup.theory_info(tid)
            assert info["journal_mode"] == "wal"

            # Appends touch a predicate no rule or query atom mentions,
            # so every interleaved answer equals the final-instance
            # answer — which is what makes "every response is digest-
            # identical to the final from-scratch answer" decidable
            # without controlling the interleaving.
            appended = [
                parse_instance(f"AuditLog(e{i}, ann)") for i in range(6)
            ]
            rounds = 8
            digests: list[str] = []

            async def appender():
                client = await ServiceClient(
                    service.host, service.port
                ).connect()
                try:
                    for i, batch in enumerate(appended):
                        await client.append_facts(tid, batch)
                        document = await client.query(
                            tid, query, backend="sqlite"
                        )
                        digests.append(document["digest"])
                finally:
                    await client.close()

            async def answerer():
                client = await ServiceClient(
                    service.host, service.port
                ).connect()
                try:
                    for _ in range(rounds):
                        document = await client.query(
                            tid, query, backend="sqlite"
                        )
                        digests.append(document["digest"])
                finally:
                    await client.close()

            await asyncio.gather(appender(), answerer())

            final = parse_instance(SEED).copy()
            for batch in appended:
                final.update(batch)
            fresh = OMQASession(theory).answer(query, final)
            expected = answers_digest(fresh)
            assert digests and all(d == expected for d in digests)

            metrics = await setup.metrics()
            counters = metrics["theories"][tid]["counters"]
            # Single-flight: one compile for the shared shape, every
            # other request (across both clients) counted as a hit.
            assert counters["session.rewrite_cache_misses"] == 1
            assert counters["session.rewrite_cache_hits"] >= 1
            assert (
                counters["session.rewrite_cache_hits"]
                == len(appended) + rounds - 1
            )
            await setup.close()

        run(_with_service(body, db_dir=tmp_path / "svc"))

    def test_all_backends_agree_with_library_answers(self):
        async def body(service):
            theory = parse_theory(UNIVERSITY, name="uni")
            instance = parse_instance(SEED)
            client = await ServiceClient(service.host, service.port).connect()
            tid = (await client.register_theory(theory))["id"]
            await client.upload_facts(tid, instance)
            for text in (
                "q(p) := Person(p)",
                "q(s, c) := EnrolledIn(s, c)",
                "q() := exists p. Professor(p)",
            ):
                query = parse_query(text)
                expected = answers_digest(
                    OMQASession(theory).answer(query, instance)
                )
                for backend in ("memory", "columnar", "sqlite"):
                    document = await client.query(tid, query, backend=backend)
                    assert document["digest"] == expected, (text, backend)
            await client.close()

        run(_with_service(body))

    def test_incomplete_rewriting_falls_back_to_chased_store(self):
        """Non-FO-rewritable theory: sqlite answers via the fixpoint."""

        async def body(service):
            theory = parse_theory(
                "E(x, y), E(y, z) -> E(x, z)", name="tc"
            )
            instance = parse_instance("E(a, b). E(b, c). E(c, d)")
            client = await ServiceClient(service.host, service.port).connect()
            tid = (await client.register_theory(theory))["id"]
            await client.upload_facts(tid, instance)
            query = parse_query("q(x, y) := E(x, y)")
            expected = answers_digest(OMQASession(theory).answer(query, instance))
            for backend in ("memory", "columnar", "sqlite"):
                document = await client.query(tid, query, backend=backend)
                assert document["digest"] == expected, backend
            await client.close()

        run(_with_service(body))

    def test_replace_reopens_readers_and_retract_maintains(self):
        async def body(service):
            theory = parse_theory(UNIVERSITY, name="uni")
            client = await ServiceClient(service.host, service.port).connect()
            tid = (await client.register_theory(theory))["id"]
            query = parse_query("q(p) := Person(p)")

            await client.upload_facts(tid, parse_instance(SEED))
            first = await client.query(tid, query, backend="sqlite")
            assert [a for (a,) in map(tuple, first["answers"])] == [
                "hopper",
                "turing",
            ]

            # Replace rebuilds the database (new interned ids); the
            # reader must reopen, not reuse stale term caches.
            await client.upload_facts(
                tid, parse_instance("TaughtBy(ml1, knuth)")
            )
            second = await client.query(tid, query, backend="sqlite")
            assert second["answers"] == [["knuth"]]

            await client.append_facts(tid, parse_instance("TaughtBy(ml2, bob)"))
            await client.retract_facts(tid, parse_instance("TaughtBy(ml1, knuth)"))
            third = await client.query(tid, query, backend="sqlite")
            assert third["answers"] == [["bob"]]
            await client.close()

        run(_with_service(body))

    def test_error_contract(self):
        async def body(service):
            client = await ServiceClient(service.host, service.port).connect()

            status, document = await client.request("GET", "/nope")
            assert status == 404 and document["error"]["code"] == "not_found"

            status, document = await client.request("DELETE", "/healthz")
            assert status == 405

            status, document = await client.request(
                "POST", "/theories", {"theory": {"format": "bogus"}}
            )
            assert status == 400 and document["error"]["code"] == "bad_payload"

            status, document = await client.request(
                "POST", "/theories/t999/query", {"query": None}
            )
            assert status == 404 and document["error"]["code"] == "unknown_theory"

            theory = parse_theory(UNIVERSITY, name="uni")
            tid = (await client.register_theory(theory))["id"]
            status, document = await client.request(
                "POST",
                f"/theories/{tid}/query",
                {
                    "query": {
                        "format": "repro/query@1",
                        "query": "q(p) := Person(p)",
                    },
                    "backend": "warp-drive",
                },
            )
            assert status == 400 and document["error"]["code"] == "bad_backend"

            # Retracting a *derived* fact violates the DRed model → 409.
            await client.upload_facts(tid, parse_instance(SEED))
            with pytest.raises(ServiceError) as excinfo:
                await client.retract_facts(
                    tid, parse_instance("Person(turing)")
                )
            assert excinfo.value.status == 409
            await client.close()

        run(_with_service(body))

    def test_retracting_a_bodyless_production_is_409_cold_or_cached(self):
        """``Ready()`` comes from a bodyless rule: derived, so a retraction
        conflicts whether or not the session has materialized the base."""

        async def body(service):
            theory = parse_theory(
                "true -> Ready()\nE(x, y) -> P(x)", name="ready"
            )
            client = await ServiceClient(service.host, service.port).connect()
            tid = (await client.register_theory(theory))["id"]
            await client.upload_facts(tid, parse_instance("E(a, b)"))
            ready = parse_instance("Ready()")
            entry = service.registry.get(tid)
            # Cold: no fixpoint cached, the store chase's supports decide.
            assert entry.session.cache_info()["chase"]["entries"] == 0
            with pytest.raises(ServiceError) as excinfo:
                await client.retract_facts(tid, ready)
            assert excinfo.value.status == 409
            # Warm: the session maintains a cached fixpoint and refuses first.
            entry.session.materialize(entry.base)
            assert entry.session.cache_info()["chase"]["entries"] == 1
            with pytest.raises(ServiceError) as excinfo:
                await client.retract_facts(tid, ready)
            assert excinfo.value.status == 409
            probe = parse_query("q() := Ready()")
            document = await client.query(tid, probe, backend="sqlite")
            assert document["answers"] == [[]]
            await client.close()

        run(_with_service(body))

    def test_malformed_http_answers_400_and_closes(self):
        async def body(service):
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            writer.write(b"NONSENSE\r\n\r\n")
            await writer.drain()
            raw = await reader.read(4096)
            assert raw.startswith(b"HTTP/1.1 400 ")
            writer.close()
            await writer.wait_closed()

        run(_with_service(body))

    def test_healthz_and_metrics_shape(self):
        async def body(service):
            client = await ServiceClient(service.host, service.port).connect()
            health = await client.healthz()
            assert health == {"ok": True, "theories": 0}
            tid = (
                await client.register_theory(
                    parse_theory(UNIVERSITY, name="uni")
                )
            )["id"]
            metrics = await client.metrics()
            assert tid in metrics["theories"]
            assert metrics["process"]["service.theories"] == 1
            assert metrics["theories"][tid]["journal_mode"] == "wal"
            info = await client.theory_info(tid)
            assert info["classes"]["known_bdd_by_syntax"] is True
            await client.close()

        run(_with_service(body))

    def test_shutdown_checkpoints_and_persists(self, tmp_path):
        """A --db-dir service survives restart with its data intact."""

        async def first(service):
            client = await ServiceClient(service.host, service.port).connect()
            tid = (
                await client.register_theory(
                    parse_theory(UNIVERSITY, name="uni")
                )
            )["id"]
            await client.upload_facts(tid, parse_instance(SEED))
            await client.close()
            return tid

        db_dir = tmp_path / "persist"
        tid = run(_with_service(first, db_dir=db_dir))
        db_file = db_dir / f"{tid}.db"
        assert db_file.exists()
        # Checkpointed on shutdown: the WAL is truncated into the db.
        wal = db_dir / f"{tid}.db-wal"
        assert not wal.exists() or wal.stat().st_size == 0
