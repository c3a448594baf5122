"""Prepared OMQA sessions: cache rewritings per query shape, chases per
instance.

The realistic deployment mode of ontology-mediated query answering pays
its big costs once: the UCQ rewriting once per *query shape* (it is
database-independent, Theorem 1) and the materialized chase once per
*database* (it is query-independent).  :class:`OMQASession` is the facade
that owns both caches, replacing the ad-hoc ``prepared=`` threading of
:mod:`repro.rewriting.answering` for callers that answer more than one
query.

Cache keys:

* **query shape** — the query canonicalized by renaming variables in
  first-occurrence order (answer variables first), so alpha-equivalent
  queries with identical atom order share one prepared rewriting;
* **instance content** — the frozenset of facts, so two instances with
  the same atoms share one materialization.  The SQL and columnar stores
  are keyed by :func:`~repro.storage.base.instance_digest`, which the
  instance caches until an ``add``/``discard`` changes its facts, so the
  store-reload check over an unchanged instance costs O(1) and an
  in-place mutation is still seen (one O(n) digest, then a reload);
* **compiled SQL** — with ``strategy="sql"`` the session keeps a
  :class:`~repro.storage.sqlite.SQLiteStore` (at ``db_path``, or
  in-memory) and caches each shape's rewriting *compiled to SQL*, keyed
  by :func:`repro.logic.serialize.dump_query` of the canonical shape.
  Reloading a different instance clears the compiled cache (compilation
  prunes disjuncts against the store's predicates and constants) but
  keeps the term dictionary and tables.  With ``strategy="columnar"``
  the session keeps a content-keyed
  :class:`~repro.storage.columnar.ColumnarStore` the same way (term
  dictionary survives reloads; interning is append-only).
"""

from __future__ import annotations

import threading
from typing import Iterable

from ..chase.engine import (
    CancellationToken,
    ChaseBudget,
    ChaseBudgetExceeded,
    ChaseCancelled,
    ChaseResult,
    chase,
)
from ..logic.instance import Instance
from ..logic.query import ConjunctiveQuery
from ..logic.terms import Term, Variable
from ..logic.tgd import Theory
from ..telemetry import Telemetry
from .answering import answer_by_materialization, answer_by_rewriting
from .engine import RewritingBudget, RewritingResult, rewrite


def query_shape(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Canonicalize a query up to variable renaming (stable atom order).

    Variables are renamed ``_s0, _s1, ...`` in order of first occurrence,
    answer variables first — the session's cache key.
    """
    renaming: dict[Variable, Variable] = {}

    def canonical(var: Variable) -> Variable:
        if var not in renaming:
            renaming[var] = Variable(f"_s{len(renaming)}")
        return renaming[var]

    for var in query.answer_vars:
        canonical(var)
    for item in query.atoms:
        for term in item.args:
            if isinstance(term, Variable):
                canonical(term)
    return query.substitute(renaming)


class OMQASession:
    """A prepared query-answering session over one theory.

    ``answer()`` picks the route: the cached rewriting when it is
    complete, otherwise a cached fixpoint materialization (raising like
    :func:`repro.rewriting.answering.certain_answers` when neither route
    is conclusive).  ``stats`` aggregates the telemetry of every engine
    run the session triggered; ``cache_info()`` reports hits/misses.

    Sessions are **thread-safe**: one reentrant per-session lock guards
    every cache mutation (``prepare``/``materialize``/``compile_sql``/
    the store loaders/live updates), so a threadpool — the service's
    deployment shape, see :mod:`repro.service` — may call ``answer()``
    concurrently without corrupting the cache dicts.  Holding the lock
    *through* a compile makes first requests single-flight: two threads
    racing to prepare the same query shape run one rewriting, and the
    loser's wait is counted as a ``session.rewrite_cache_hits`` hit.
    Engine work under the lock serializes sessions' CPU-bound phases,
    which costs nothing under the GIL; scale-out reads belong on
    separate store connections (WAL), not on extra session locks.
    """

    def __init__(
        self,
        theory: Theory,
        rewriting_budget: RewritingBudget | None = None,
        chase_budget: ChaseBudget | None = None,
        db_path: "str | None" = None,
        cancel: "CancellationToken | None" = None,
    ) -> None:
        self.theory = theory
        self.rewriting_budget = rewriting_budget
        self.chase_budget = chase_budget or ChaseBudget(
            max_rounds=100, max_atoms=500_000
        )
        # Cooperative cancellation: every chase the session triggers
        # watches this token (the CLI's SIGINT handler fires it), so a
        # long materialization stops at the next check, not at the end.
        self.cancel = cancel
        # Where strategy="sql" keeps its SQLiteStore; None = in-memory.
        self.db_path = db_path
        self.stats = Telemetry()
        # One reentrant lock for every cache the session owns.  RLock,
        # not Lock: answer() holds it across a store load + evaluation
        # while the loaders and prepare() re-acquire it underneath.
        self._lock = threading.RLock()
        self._rewritings: dict[ConjunctiveQuery, RewritingResult] = {}
        self._chases: dict[frozenset, ChaseResult] = {}
        self._sql_store = None
        self._sql_digest: "str | None" = None
        self._compiled_sql: dict = {}
        self._columnar_store = None
        self._columnar_digest: "str | None" = None
        self._hits = {"rewriting": 0, "chase": 0, "sql": 0, "columnar": 0}
        self._misses = {"rewriting": 0, "chase": 0, "sql": 0, "columnar": 0}

    # ------------------------------------------------------------------
    # Prepared artifacts
    # ------------------------------------------------------------------
    def prepare(self, query: ConjunctiveQuery) -> RewritingResult:
        """The (cached) UCQ rewriting for this query's shape.

        Note the result's ``query``/``ucq`` are phrased over the canonical
        shape variables; ``answer()`` evaluates via the shape, so answer
        tuples are unaffected.
        """
        shape = query_shape(query)
        with self._lock:
            cached = self._rewritings.get(shape)
            if cached is not None:
                self._hits["rewriting"] += 1
                # Mirrored into telemetry so ``--stats`` output (and any
                # service wrapping the session) can observe per-shape
                # rewriting amortization without calling cache_info().
                self.stats.counters["session.rewrite_cache_hits"] += 1
                return cached
            self._misses["rewriting"] += 1
            self.stats.counters["session.rewrite_cache_misses"] += 1
            # Still under the lock: concurrent first requests for one
            # shape are single-flight — one compile, the rest hit.
            result = rewrite(self.theory, shape, self.rewriting_budget)
            self.stats.merge(result.stats)
            self._rewritings[shape] = result
            return result

    def materialize(self, instance: Instance) -> ChaseResult:
        """The (cached) fixpoint chase of this instance's content.

        Raises :class:`ChaseBudgetExceeded` when the chase does not reach
        a fixpoint within the session's chase budget — a non-terminating
        materialization must stay loud, not cached as truncated.
        """
        key = instance.atoms()
        with self._lock:
            cached = self._chases.get(key)
            if cached is not None:
                self._hits["chase"] += 1
                # Mirrored like ``session.rewrite_cache_*`` in prepare():
                # the key is the instance *content*, so a mutated-then-
                # restored instance hits here — observable via --stats.
                self.stats.counters["session.chase_cache_hits"] += 1
                return cached
            self._misses["chase"] += 1
            self.stats.counters["session.chase_cache_misses"] += 1
            result = chase(
                self.theory,
                instance,
                budget=self.chase_budget,
                cancel=self.cancel,
            )
            self.stats.merge(result.stats)
            if not result.terminated:
                if self.cancel is not None and self.cancel.cancelled:
                    raise ChaseCancelled(
                        "materialization cancelled before reaching a fixpoint"
                    )
                raise ChaseBudgetExceeded(
                    f"chase did not reach a fixpoint within {self.chase_budget}; "
                    "answer via a complete rewriting or raise the session's budget"
                )
            self._chases[key] = result
            return result

    # ------------------------------------------------------------------
    # Live updates (incremental maintenance)
    # ------------------------------------------------------------------
    def add_facts(self, instance: Instance, facts: Iterable) -> Instance:
        """A new instance with ``facts`` added, its chase maintained live.

        Returns the updated :class:`~repro.logic.instance.Instance`
        (the input is never mutated — session cache keys are content-
        based, so callers keep both handles usable).  When the session
        holds a terminated materialization of ``instance``, the cached
        fixpoint is *maintained* via
        :func:`repro.incremental.incremental_update` — a semi-naive
        delta round over the added facts — and cached under the updated
        content key, so the next ``answer()`` against the updated
        instance pays no chase at all.  The SQL/columnar store caches
        stay digest-keyed: they reload lazily, and only when the
        instance content actually changed.
        """
        return self._update(instance, add=facts)

    def retract_facts(self, instance: Instance, facts: Iterable) -> Instance:
        """A new instance with ``facts`` removed, its chase maintained live.

        The cached fixpoint (when present and terminated) is maintained
        DRed-style: the retracted facts' derivation cone is over-deleted
        and survivors are re-derived — see :mod:`repro.incremental` for
        the exact model, including the refusal (``ValueError``) for
        theories with universal head variables.
        """
        return self._update(instance, retract=facts)

    def _update(
        self, instance: Instance, add: Iterable = (), retract: Iterable = ()
    ) -> Instance:
        from ..incremental import incremental_update

        add = frozenset(add)
        retract = frozenset(retract)
        updated = instance.copy()
        for item in retract:
            updated.discard(item)
        for item in add:
            updated.add(item)
        new_key = updated.atoms()
        with self._lock:
            cached = self._chases.get(instance.atoms())
            if (
                cached is not None
                and cached.terminated
                and new_key not in self._chases
            ):
                outcome = incremental_update(
                    cached,
                    add=add,
                    retract=retract,
                    budget=self.chase_budget,
                    cancel=self.cancel,
                )
                # Merge only the maintenance work: the original chase's
                # telemetry already landed in ``stats`` when it ran.
                self.stats.merge(outcome.stats)
                if outcome.result.terminated:
                    self._chases[new_key] = outcome.result
        return updated

    def store(self):
        """The session's :class:`~repro.storage.sqlite.SQLiteStore`.

        Created lazily (at ``db_path``, or in-memory) and wired to the
        session's telemetry, so ``store.*`` counters land in ``stats``.
        """
        with self._lock:
            if self._sql_store is None:
                from ..storage.sqlite import SQLiteStore

                self._sql_store = SQLiteStore(
                    self.db_path if self.db_path is not None else ":memory:",
                    telemetry=self.stats,
                )
            return self._sql_store

    def _loaded_store(self, instance: Instance):
        """The session store holding exactly ``instance``'s facts.

        Content-keyed like :meth:`materialize`: a reload happens only
        when the digest changes, and it invalidates the compiled-SQL
        cache (compilation prunes against the store's predicate tables
        and interned constants, which a new instance may extend).
        """
        from ..storage.base import instance_digest

        with self._lock:
            store = self.store()
            digest = instance_digest(instance)
            if digest != self._sql_digest:
                # Mirrored like ``session.rewrite_cache_*``: a miss is a
                # store reload, observable via --stats and /metrics.
                self.stats.counters["session.sql_load_misses"] += 1
                store.clear_facts()
                store.add_many(instance)
                self._compiled_sql.clear()
                self._sql_digest = digest
            else:
                self.stats.counters["session.sql_load_hits"] += 1
            return store

    def _loaded_columnar(self, instance: Instance):
        """The session's :class:`~repro.storage.columnar.ColumnarStore`
        holding exactly ``instance``'s facts.

        Content-keyed like :meth:`_loaded_store`; a reload keeps the term
        dictionary (interning is append-only) and only repopulates the
        per-predicate tuple stores.
        """
        from ..storage.base import instance_digest
        from ..storage.columnar import ColumnarStore

        with self._lock:
            if self._columnar_store is None:
                self._columnar_store = ColumnarStore(telemetry=self.stats)
            digest = instance_digest(instance)
            if digest != self._columnar_digest:
                self._misses["columnar"] += 1
                self.stats.counters["session.columnar_load_misses"] += 1
                self._columnar_store.clear_facts()
                self._columnar_store.add_many(instance)
                self._columnar_digest = digest
            else:
                self._hits["columnar"] += 1
                self.stats.counters["session.columnar_load_hits"] += 1
            return self._columnar_store

    def compile_sql(self, query: ConjunctiveQuery, instance: Instance):
        """The (cached) SQL compilation of this shape's rewriting.

        The cache key is :func:`~repro.logic.serialize.dump_query` of the
        canonical shape — the serialization satellite exists so this key
        is stable text, not object identity.  Raises when the rewriting
        is incomplete (there is nothing sound to compile).
        """
        from ..logic.serialize import dump_query
        from ..storage.sqlcompile import compile_ucq

        with self._lock:
            prepared = self.prepare(query)
            if not prepared.complete:
                raise RuntimeError("rewriting incomplete; cannot answer soundly")
            store = self._loaded_store(instance)
            key = dump_query(query_shape(query))
            cached = self._compiled_sql.get(key)
            if cached is not None:
                self._hits["sql"] += 1
                return cached
            self._misses["sql"] += 1
            compiled = compile_ucq(prepared.ucq, store)
            self._compiled_sql[key] = compiled
            return compiled

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer(
        self,
        query: ConjunctiveQuery,
        instance: Instance,
        strategy: str = "auto",
    ) -> set[tuple[Term, ...]]:
        """Certain answers using the session's prepared artifacts.

        ``strategy``: ``'rewrite'`` forces the rewriting route (raises on
        an incomplete rewriting), ``'materialize'`` forces the chase
        route, ``'sql'`` evaluates the compiled rewriting inside the
        session's SQLite store (same answers as ``'rewrite'``, pinned by
        the equivalence tests), ``'columnar'`` evaluates the rewriting as
        hash joins over the session's interned-id
        :class:`~repro.storage.columnar.ColumnarStore` (falling back to
        the cached materialization when the rewriting is incomplete),
        ``'auto'`` prefers a complete rewriting and falls back to
        materialization.

        .. versionadded:: 1.2
            The ``'columnar'`` strategy; the name matches the chase/
            answer backend resolved by :func:`repro.storage.resolve_backend`.
        """
        if strategy not in ("auto", "rewrite", "materialize", "sql", "columnar"):
            raise ValueError(
                "strategy must be 'auto', 'rewrite', 'materialize', 'sql' "
                "or 'columnar'"
            )
        shape = query_shape(query)
        if strategy == "columnar":
            from ..chase.columnar_kernel import evaluate_ucq_columnar

            # Lock across load + evaluate: the session owns one shared
            # columnar store, and another thread answering a different
            # instance would repopulate it mid-join otherwise.
            with self._lock:
                prepared = self.prepare(query)
                if prepared.complete:
                    store = self._loaded_columnar(instance)
                    answers = evaluate_ucq_columnar(prepared.ucq, store)
                    if (
                        prepared.always_true
                        and query.is_boolean()
                        and len(instance)
                    ):
                        answers.add(())
                    return answers
                materialized = self.materialize(instance)
                store = self._loaded_columnar(materialized.instance)
                answers = evaluate_ucq_columnar(shape, store)
            domain = instance.domain()
            return {
                tup for tup in answers if all(term in domain for term in tup)
            }
        if strategy == "sql":
            from ..storage.sqlcompile import execute_compiled

            # Same shared-store discipline as 'columnar': the compiled
            # plan is only valid against the store state it was compiled
            # for, so the load + execute pair must not interleave with a
            # concurrent reload.
            with self._lock:
                prepared = self.prepare(query)
                compiled = self.compile_sql(query, instance)
                answers = execute_compiled(compiled, self.store())
                if prepared.always_true and query.is_boolean() and len(instance):
                    answers.add(())
                return answers
        if strategy in ("auto", "rewrite"):
            prepared = self.prepare(query)
            if prepared.complete:
                return answer_by_rewriting(
                    self.theory, shape, instance, prepared=prepared
                )
            if strategy == "rewrite":
                raise RuntimeError("rewriting incomplete; cannot answer soundly")
        materialized = self.materialize(instance)
        return answer_by_materialization(
            self.theory, shape, instance, prepared=materialized
        )

    def answer_many(
        self,
        queries: Iterable[ConjunctiveQuery],
        instance: Instance,
        strategy: str = "auto",
    ) -> list[set[tuple[Term, ...]]]:
        """Answer a batch of queries over one instance, caches shared."""
        return [self.answer(query, instance, strategy) for query in queries]

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {
                "rewriting": {
                    "hits": self._hits["rewriting"],
                    "misses": self._misses["rewriting"],
                    "entries": len(self._rewritings),
                },
                "chase": {
                    "hits": self._hits["chase"],
                    "misses": self._misses["chase"],
                    "entries": len(self._chases),
                },
                "sql": {
                    "hits": self._hits["sql"],
                    "misses": self._misses["sql"],
                    "entries": len(self._compiled_sql),
                },
                "columnar": {
                    "hits": self._hits["columnar"],
                    "misses": self._misses["columnar"],
                    "entries": 1 if self._columnar_digest is not None else 0,
                },
            }

    def clear(self) -> None:
        """Drop every cached artifact (budgets and stats survive)."""
        with self._lock:
            self._rewritings.clear()
            self._chases.clear()
            self._compiled_sql.clear()
            self._sql_digest = None
            if self._sql_store is not None:
                self._sql_store.clear_facts()
            self._columnar_digest = None
            if self._columnar_store is not None:
                self._columnar_store.clear_facts()

    def close(self) -> None:
        """Release the stores (idempotent; caches stay usable in RAM)."""
        with self._lock:
            if self._sql_store is not None:
                self._sql_store.close()
                self._sql_store = None
                self._sql_digest = None
                self._compiled_sql.clear()
            if self._columnar_store is not None:
                self._columnar_store.close()
                self._columnar_store = None
                self._columnar_digest = None

    def __repr__(self) -> str:
        info = self.cache_info()
        return (
            f"OMQASession({self.theory!r}, "
            f"{info['rewriting']['entries']} rewritings, "
            f"{info['chase']['entries']} chases)"
        )
