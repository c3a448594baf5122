"""Route table and request handlers for the OMQA service.

The JSON API (all request/response bodies are JSON; see
``docs/service.md`` for curl examples):

===========  =================================  =================================
Method       Path                               Action
===========  =================================  =================================
``POST``     ``/theories``                      register a theory → id + classes
``GET``      ``/theories``                      list registered theory ids
``GET``      ``/theories/{id}``                 theory info (classes, version)
``POST``     ``/theories/{id}/instances``       upload (replace) or append facts
``DELETE``   ``/theories/{id}/facts``           retract facts (DRed maintenance)
``POST``     ``/theories/{id}/query``           certain answers for a CQ
``GET``      ``/healthz``                       liveness probe
``GET``      ``/metrics``                       counters, per-theory + process
===========  =================================  =================================

Handlers run on the event loop; anything that chases, rewrites or
evaluates hops to the server's threadpool (the sessions and stores are
thread-safe / thread-local by design, see :mod:`repro.service.registry`).

Error contract: decode failures and unknown backends → 400, unknown
theory ids → 404, wrong method on a known path → 405, updates that blow
the chase budget or violate DRed preconditions → 409, queries no sound
route can answer → 422, everything unexpected → 500 with the exception
text.  Every error body is ``{"error": {"code": ..., "message": ...}}``.

``service.*`` counters (all mutated on the event loop only):

=============================  ==============================================
``service.requests``           HTTP requests parsed
``service.responses_2xx``      successful responses
``service.responses_4xx``      client-error responses
``service.responses_5xx``      server-error responses
``service.theories``           theories registered
``service.uploads``            replace-mode instance uploads
``service.appends``            append-mode fact batches
``service.retracts``           retraction batches
``service.queries``            query requests answered
``service.deadline_timeouts``  requests cut off by ``--deadline``
===========================================================================
"""

from __future__ import annotations

import asyncio
from collections import Counter
from typing import Awaitable, Callable

from ..logic.parser import ParseError
from ..logic.serialize import (
    SerializationError,
    instance_from_json,
    query_from_json,
    theory_from_json,
)
from ..storage.chasestore import StoreChaseError
from ..telemetry import Telemetry
from .registry import (
    BACKENDS,
    ChaseBudgetExceededInStore,
    TheoryRegistry,
    answers_digest,
    answers_to_json,
)


class ApiError(Exception):
    """An error with a deliberate HTTP status (everything else is 500)."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code

    def document(self) -> dict:
        return {"error": {"code": self.code, "message": str(self)}}


def _decode(decoder, payload):
    try:
        return decoder(payload)
    except (SerializationError, ParseError) as exc:
        raise ApiError(400, "bad_payload", str(exc)) from exc


def _require_object(body: object) -> dict:
    if not isinstance(body, dict):
        raise ApiError(400, "bad_payload", "request body must be a JSON object")
    return body


class ServiceApp:
    """The HTTP-facing application: routes, handlers, service counters."""

    def __init__(
        self,
        registry: TheoryRegistry,
        executor,
        stats: "Telemetry | None" = None,
    ) -> None:
        self.registry = registry
        self.executor = executor
        self.stats = stats if stats is not None else Telemetry()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def dispatch(self, method: str, path: str, body: object):
        """Route one request; returns ``(status, document)``."""
        self.stats.counters["service.requests"] += 1
        try:
            status, document = await self._route(method, path, body)
        except ApiError as exc:
            status, document = exc.status, exc.document()
        except (
            ChaseBudgetExceededInStore,
            StoreChaseError,
            ValueError,
        ) as exc:
            # Updates the maintenance layer refuses: budget overruns,
            # retracting derived facts, add∩retract overlaps, foreign
            # chase state.
            status = 409
            document = {"error": {"code": "conflict", "message": str(exc)}}
        except RuntimeError as exc:
            # "rewriting incomplete" and friends: the request was
            # well-formed but no sound route exists under the budgets.
            status = 422
            document = {"error": {"code": "unanswerable", "message": str(exc)}}
        except Exception as exc:  # noqa: BLE001 — the server must answer
            status = 500
            document = {
                "error": {"code": type(exc).__name__, "message": str(exc)}
            }
        self.stats.counters[f"service.responses_{status // 100}xx"] += 1
        return status, document

    async def _route(self, method: str, path: str, body: object):
        parts = [part for part in path.split("/") if part]
        if parts == ["healthz"]:
            self._expect(method, "GET")
            return 200, {"ok": True, "theories": len(self.registry.ids())}
        if parts == ["metrics"]:
            self._expect(method, "GET")
            return 200, self._metrics()
        if parts == ["theories"]:
            if method == "GET":
                return 200, {"theories": self.registry.ids()}
            self._expect(method, "POST")
            return await self._register(body)
        if len(parts) >= 2 and parts[0] == "theories":
            entry = self._entry(parts[1])
            rest = parts[2:]
            if not rest:
                self._expect(method, "GET")
                return 200, self._info(entry)
            if rest == ["instances"]:
                self._expect(method, "POST")
                return await self._upload(entry, body)
            if rest == ["facts"]:
                self._expect(method, "DELETE")
                return await self._retract(entry, body)
            if rest == ["query"]:
                self._expect(method, "POST")
                return await self._query(entry, body)
        raise ApiError(404, "not_found", f"no route for {path}")

    def _expect(self, method: str, wanted: str) -> None:
        if method != wanted:
            raise ApiError(405, "method_not_allowed", f"use {wanted}")

    def _entry(self, theory_id: str):
        try:
            return self.registry.get(theory_id)
        except KeyError:
            raise ApiError(
                404, "unknown_theory", f"no theory {theory_id!r}"
            ) from None

    async def _offload(self, fn: Callable, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.executor, fn, *args)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _register(self, body: object):
        payload = _require_object(body)
        theory = _decode(theory_from_json, payload.get("theory"))
        entry = await self._offload(self.registry.register, theory)
        self.stats.counters["service.theories"] += 1
        return 201, {"id": entry.id, "classes": entry.classes}

    def _info(self, entry) -> dict:
        return {
            "id": entry.id,
            "classes": entry.classes,
            "rules": len(tuple(entry.theory)),
            "facts": len(entry.base),
            "version": entry.version,
            "journal_mode": entry.store.journal_mode,
        }

    async def _upload(self, entry, body: object):
        payload = _require_object(body)
        mode = payload.get("mode", "append")
        if mode not in ("append", "replace"):
            raise ApiError(400, "bad_mode", "mode must be 'append' or 'replace'")
        instance = _decode(instance_from_json, payload.get("instance"))
        async with entry.write_lock:
            if mode == "replace":
                version = await self._offload(entry.replace, instance)
                self.stats.counters["service.uploads"] += 1
            else:
                version = await self._offload(
                    entry.apply_update, tuple(instance), ()
                )
                self.stats.counters["service.appends"] += 1
        return 200, {
            "id": entry.id,
            "mode": mode,
            "facts": len(entry.base),
            "version": version,
        }

    async def _retract(self, entry, body: object):
        payload = _require_object(body)
        instance = _decode(instance_from_json, payload.get("instance"))
        async with entry.write_lock:
            version = await self._offload(
                entry.apply_update, (), tuple(instance)
            )
            self.stats.counters["service.retracts"] += 1
        return 200, {
            "id": entry.id,
            "mode": "retract",
            "facts": len(entry.base),
            "version": version,
        }

    async def _query(self, entry, body: object):
        payload = _require_object(body)
        query = _decode(query_from_json, payload.get("query"))
        backend = payload.get("backend", "memory")
        if backend not in BACKENDS:
            raise ApiError(
                400, "bad_backend", f"backend must be one of {BACKENDS}"
            )
        answers = await self._offload(entry.answer, query, backend)
        self.stats.counters["service.queries"] += 1
        return 200, {
            "id": entry.id,
            "backend": backend,
            "version": entry.version,
            "answers": answers_to_json(answers),
            "digest": answers_digest(answers),
        }

    def _metrics(self) -> dict:
        # Counters only: merging whole collectors would copy every round
        # record on each call, making /metrics O(history).
        process = Counter(self.stats.counters)
        theories = {}
        for entry in self.registry.entries():
            theories[entry.id] = {
                "version": entry.version,
                "facts": len(entry.base),
                "journal_mode": entry.store.journal_mode,
                "counters": {
                    name: entry.session.stats.counters[name]
                    for name in sorted(entry.session.stats.counters)
                },
            }
            process.update(entry.session.stats.counters)
        return {
            "process": {name: process[name] for name in sorted(process)},
            "theories": theories,
        }


Handler = Callable[[str, str, object], Awaitable[tuple]]
