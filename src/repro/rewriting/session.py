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
  queries with identical atom order share one prepared rewriting.
  ``answer()`` canonicalizes once and hands the shape to every cache it
  consults;
* **instance content** — the frozenset of facts, so two instances with
  the same atoms share one materialization.  The SQL and columnar stores
  are keyed by :func:`~repro.storage.base.instance_digest`, which the
  instance caches until an ``add``/``discard`` changes its facts, so the
  store-reload check over an unchanged instance costs O(1) and an
  in-place mutation is still seen (one O(n) digest, then a reload).
  ``add_facts``/``retract_facts`` cost the change instead: the updated
  instance gets its digest derived from its parent's sorted fact reprs
  (:func:`~repro.storage.base.derive_digest`), and the update is
  recorded as a step between the two digests.  The columnar store
  replays recorded steps from the content it holds to the content it is
  asked for (a ``session.columnar_delta_hits`` hit) and reloads only
  when no chain of steps connects them.  Replay is lazy, so readers of
  the old instance keep hitting until the new one is asked for, and a
  replay keeps only the chain it walked, so a late reader of the old
  content walks it back.  The steps are dropped on a reload, and as
  soon as they carry more facts than the store holds (a reload is then
  no dearer);
* **compiled SQL** — with ``strategy="sql"`` the session keeps a
  :class:`~repro.storage.sqlite.SQLiteStore` (at ``db_path``, or
  in-memory) and caches each shape's rewriting *compiled to SQL*, keyed
  by the canonical shape itself, like the rewriting cache.
  Reloading a different instance clears the compiled cache (compilation
  prunes disjuncts against the store's predicates and constants) but
  keeps the term dictionary and tables.  The session never clears facts
  it did not load: a ``db_path`` store that already holds other facts
  raises :class:`~repro.storage.chasestore.StoreChaseError`.  With
  ``strategy="columnar"`` the session keeps a content-keyed
  :class:`~repro.storage.columnar.ColumnarStore` the same way (term
  dictionary survives reloads; interning is append-only).

:data:`BACKEND_STRATEGIES` maps each storage backend to the strategy that
evaluates on it; :func:`repro.rewriting.answering.answer`, the CLI and the
service all route through it.
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
from ..logic.containment import evaluate_ucq
from ..logic.instance import Instance
from ..logic.query import ConjunctiveQuery
from ..logic.terms import Term, Variable
from ..logic.tgd import Theory
from ..telemetry import Telemetry
from .answering import (
    DEFAULT_ANSWER_CHASE_BUDGET,
    _finish_rewriting,
    answer_by_materialization,
)
from .engine import RewritingBudget, RewritingResult, rewrite

# Storage backend -> the session strategy that evaluates on it.
BACKEND_STRATEGIES = {"memory": "auto", "columnar": "columnar", "sqlite": "sql"}
_STRATEGIES = ("auto", "rewrite", "materialize", "sql", "columnar")


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

    ``answer()`` is the one place that picks a route: the cached
    rewriting when it is complete, otherwise a cached fixpoint
    materialization (raising when neither route is conclusive).
    ``stats`` aggregates the telemetry of every engine run the session
    triggered; ``cache_info()`` reports hits/misses from its
    ``session.*`` counters.

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
        self.chase_budget = chase_budget or DEFAULT_ANSWER_CHASE_BUDGET
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
        # Recorded updates between content digests, both directions:
        # digest -> [(other digest, facts to add, facts to remove)].
        self._columnar_steps: dict[str, list[tuple[str, frozenset, frozenset]]] = {}
        self._columnar_step_facts = 0
        # Sorted fact reprs of the latest derived content and its parent,
        # by digest: what derive_digest needs for the next update.
        self._reprs: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # Prepared artifacts
    # ------------------------------------------------------------------
    def prepare(self, query: ConjunctiveQuery) -> RewritingResult:
        """The (cached) UCQ rewriting for this query's shape.

        Note the result's ``query``/``ucq`` are phrased over the canonical
        shape variables; ``answer()`` evaluates via the shape, so answer
        tuples are unaffected.
        """
        return self._prepare_shape(query_shape(query))

    def _prepare_shape(self, shape: ConjunctiveQuery) -> RewritingResult:
        """:meth:`prepare` for a query already in :func:`query_shape` form."""
        with self._lock:
            cached = self._rewritings.get(shape)
            if cached is not None:
                self.stats.counters["session.rewrite_cache_hits"] += 1
                return cached
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
                # The key is the instance *content*, so a mutated-then-
                # restored instance hits here.
                self.stats.counters["session.chase_cache_hits"] += 1
                return cached
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
        stay digest-keyed: the updated instance's digest is derived from
        the change, and the columnar store applies the change the first
        time the updated instance is asked for (the SQL store reloads).
        """
        return self._update(instance, add=facts)

    def retract_facts(self, instance: Instance, facts: Iterable) -> Instance:
        """A new instance with ``facts`` removed, its chase maintained live.

        The cached fixpoint (when present and terminated) is maintained
        DRed-style: the retracted facts' derivation cone is over-deleted
        and each cone atom is probed for a derivation from the survivors
        — see :mod:`repro.incremental` for
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
        # The change as applied, removals first: a fact retracted and
        # added back is in both sets.
        removed = {item for item in retract if updated.discard(item)}
        added = {item for item in add if updated.add(item)}
        with self._lock:
            cached = None
            if self._chases:
                new_key = updated.atoms()
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
            if added or removed:
                self._record_step(instance, updated, added, removed)
        return updated

    def _record_step(
        self, instance: Instance, updated: Instance, added: set, removed: set
    ) -> None:
        """Derive ``updated``'s digest and record the step for the
        columnar store (under the lock)."""
        from ..storage.base import derive_digest, sorted_reprs

        parent = instance._digest
        reprs = self._reprs.get(parent) if parent is not None else None
        if reprs is None:
            reprs = sorted_reprs(instance)
            parent = instance._digest
        derived = derive_digest(updated, reprs, added, removed)
        digest = updated._digest
        self._reprs = {parent: reprs, digest: derived}
        if self._columnar_digest is not None:
            self._link(parent, digest, frozenset(added), frozenset(removed))

    def _link(
        self, source: str, target: str, added: frozenset, removed: frozenset
    ) -> None:
        """Record one step, walkable both ways; drop every step once
        they carry more facts than the columnar store holds."""
        self._columnar_steps.setdefault(source, []).append((target, added, removed))
        self._columnar_steps.setdefault(target, []).append((source, removed, added))
        self._columnar_step_facts += len(added) + len(removed)
        if self._columnar_step_facts > len(self._columnar_store):
            self._drop_columnar_steps()

    def _drop_columnar_steps(self) -> None:
        self._columnar_steps.clear()
        self._columnar_step_facts = 0

    def _columnar_path(self, target: str) -> "list[tuple] | None":
        """The recorded steps from the columnar store's content to
        ``target`` in order, as ``(source, target, added, removed)``;
        None when no chain of steps connects them."""
        source = self._columnar_digest
        if source is None or target not in self._columnar_steps:
            return None
        reached: dict[str, "tuple | None"] = {source: None}
        frontier = [source]
        while frontier and target not in reached:
            following = []
            for node in frontier:
                for other, added, removed in self._columnar_steps.get(node, ()):
                    if other not in reached:
                        reached[other] = (node, other, added, removed)
                        following.append(other)
            frontier = following
        if target not in reached:
            return None
        path = []
        while reached[target] is not None:
            path.append(reached[target])
            target = reached[target][0]
        path.reverse()
        return path

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

        Only facts the session loaded itself are ever cleared.  A store
        the session has not loaded yet (a ``db_path`` database) is used
        as-is when it is empty or holds exactly ``instance``'s facts;
        otherwise :class:`~repro.storage.chasestore.StoreChaseError` is
        raised and the stored facts stay in place.
        """
        from ..storage.base import instance_digest
        from ..storage.chasestore import StoreChaseError

        with self._lock:
            store = self.store()
            digest = instance_digest(instance)
            if digest != self._sql_digest:
                self.stats.counters["session.sql_load_misses"] += 1
                if self._sql_digest is not None or not len(store):
                    store.clear_facts()
                    store.add_many(instance)
                elif store.digest() != digest:
                    raise StoreChaseError(
                        f"store at {store.path!r} already holds facts that "
                        "differ from `instance`; refusing to evaluate the "
                        "rewriting over them (use a fresh db_path)"
                    )
                self._compiled_sql.clear()
                self._sql_digest = digest
            else:
                self.stats.counters["session.sql_load_hits"] += 1
            return store

    def _loaded_columnar(self, instance: Instance):
        """The session's :class:`~repro.storage.columnar.ColumnarStore`
        holding exactly ``instance``'s facts.

        Content-keyed like :meth:`_loaded_store`.  When recorded update
        steps lead from the held content to ``instance``'s, they are
        replayed (a delta hit); otherwise the store reloads, keeping the
        term dictionary (interning is append-only) and only
        repopulating the per-predicate tuple stores.
        """
        from ..storage.base import instance_digest
        from ..storage.columnar import ColumnarStore

        with self._lock:
            store = self._columnar_store
            if store is None:
                store = self._columnar_store = ColumnarStore(telemetry=self.stats)
            digest = instance_digest(instance)
            if digest == self._columnar_digest:
                self.stats.counters["session.columnar_load_hits"] += 1
                return store
            path = self._columnar_path(digest)
            # Unset while the store changes, so a failure part-way
            # forces a reload rather than a hit on half-applied content.
            self._columnar_digest = None
            if path is None:
                self.stats.counters["session.columnar_load_misses"] += 1
                self._drop_columnar_steps()
                store.clear_facts()
                store.add_many(instance)
            else:
                self.stats.counters["session.columnar_delta_hits"] += 1
                for _, _, added, removed in path:
                    for item in removed:
                        store.discard(item)
                    if added:
                        store.add_many(added)
                # Keep only the chain just replayed: a reader still on
                # the old content walks it back, later writes extend it.
                self._drop_columnar_steps()
                for step in path:
                    self._link(*step)
            self._columnar_digest = digest
            return store

    def compile_sql(self, query: ConjunctiveQuery, instance: Instance):
        """The (cached) SQL compilation of this shape's rewriting.

        The cache key is the canonical :func:`query_shape` itself, a
        value-hashed query like the rewriting cache's key.  Raises when
        the rewriting is incomplete (there is nothing sound to compile).
        """
        return self._compile_shape(query_shape(query), instance)

    def _compile_shape(self, shape: ConjunctiveQuery, instance: Instance):
        """:meth:`compile_sql` for a query already in shape form."""
        from ..storage.sqlcompile import compile_ucq

        with self._lock:
            prepared = self._prepare_shape(shape)
            if not prepared.complete:
                raise RuntimeError("rewriting incomplete; cannot answer soundly")
            store = self._loaded_store(instance)
            cached = self._compiled_sql.get(shape)
            if cached is not None:
                self.stats.counters["session.sql_compile_hits"] += 1
                return cached
            self.stats.counters["session.sql_compile_misses"] += 1
            compiled = compile_ucq(prepared.ucq, store)
            self._compiled_sql[shape] = compiled
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

        A complete rewriting is evaluated where ``strategy`` says:
        ``'auto'`` and ``'rewrite'`` over ``instance`` in RAM, ``'sql'``
        compiled to SQL inside the session's SQLite store, ``'columnar'``
        as hash joins over the session's interned-id
        :class:`~repro.storage.columnar.ColumnarStore`; every one gives
        the same answers (pinned by the equivalence tests).  When the
        rewriting is incomplete, every strategy but ``'rewrite'`` (which
        raises) falls back to the one materialization route, the cached
        fixpoint :meth:`materialize`; ``'materialize'`` forces that route.

        .. versionadded:: 1.2
            The ``'columnar'`` strategy; the name matches the chase/
            answer backend resolved by :func:`repro.storage.resolve_backend`.
        """
        if strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        shape = query_shape(query)
        if strategy != "materialize":
            prepared = self._prepare_shape(shape)
            if prepared.complete:
                return _finish_rewriting(
                    prepared,
                    shape,
                    instance,
                    self._evaluate(prepared, shape, instance, strategy),
                    lambda: self._materialized_answers(shape, instance),
                )
            if strategy == "rewrite":
                raise RuntimeError("rewriting incomplete; cannot answer soundly")
        return self._materialized_answers(shape, instance)

    def _evaluate(
        self,
        prepared: RewritingResult,
        shape: ConjunctiveQuery,
        instance: Instance,
        strategy: str,
    ) -> set[tuple[Term, ...]]:
        """The complete rewriting's UCQ over ``instance``, on the
        strategy's backend."""
        if strategy == "columnar":
            from ..chase.columnar_kernel import evaluate_ucq_columnar

            # Lock across load + evaluate: the session owns one shared
            # columnar store, and another thread answering a different
            # instance would repopulate it mid-join otherwise.
            with self._lock:
                store = self._loaded_columnar(instance)
                return evaluate_ucq_columnar(prepared.ucq, store)
        if strategy == "sql":
            from ..storage.sqlcompile import execute_compiled

            # The compiled plan is only valid against the store state it
            # was compiled for, so load + execute must not interleave
            # with a concurrent reload.
            with self._lock:
                compiled = self._compile_shape(shape, instance)
                return execute_compiled(compiled, self.store())
        return evaluate_ucq(prepared.ucq, instance)

    def _materialized_answers(
        self, shape: ConjunctiveQuery, instance: Instance
    ) -> set[tuple[Term, ...]]:
        return answer_by_materialization(
            self.theory, shape, instance, prepared=self.materialize(instance)
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
        """Hits, misses and entries per cache, plus the columnar store's
        ``delta_hits`` (loads served by replaying recorded updates); all
        are read from the ``session.*`` counters in ``stats``."""
        counters = self.stats.counters

        def info(counter: str, entries: int) -> dict[str, int]:
            return {
                "hits": counters.get(f"session.{counter}_hits", 0),
                "misses": counters.get(f"session.{counter}_misses", 0),
                "entries": entries,
            }

        with self._lock:
            return {
                "rewriting": info("rewrite_cache", len(self._rewritings)),
                "chase": info("chase_cache", len(self._chases)),
                "sql": info("sql_compile", len(self._compiled_sql)),
                "columnar": {
                    **info(
                        "columnar_load",
                        1 if self._columnar_digest is not None else 0,
                    ),
                    "delta_hits": counters.get("session.columnar_delta_hits", 0),
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
            self._drop_columnar_steps()
            self._reprs.clear()
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
                self._drop_columnar_steps()

    def __repr__(self) -> str:
        info = self.cache_info()
        return (
            f"OMQASession({self.theory!r}, "
            f"{info['rewriting']['entries']} rewritings, "
            f"{info['chase']['entries']} chases)"
        )
