"""Compile CQs / UCQ rewritings to SQL over a :class:`SQLiteStore`.

This is the pass that makes ``backend="sqlite"`` answer queries inside
SQLite's join engine.  Each conjunctive query becomes one SELECT-join:

* every body atom contributes a table alias in the FROM clause;
* a **repeated variable** becomes a join equality (self-joins included:
  ``E(x, x)`` compiles to ``t0.a0 = t0.a1``);
* a **constant** (or ground Skolem term) becomes a WHERE equality against
  its interned dictionary id — a constant the store never interned makes
  the disjunct provably empty without touching SQL;
* the **answer tuple** becomes the projection, ``SELECT DISTINCT``-ed,
  repeating a column when the tuple repeats a variable (``q(v, v)``);
* a UCQ becomes the ``UNION`` of its compiled disjuncts, executed as one
  statement; disjuncts over predicates the store has no facts for are
  dropped at compile time.

Boolean queries short-circuit instead: each disjunct compiles to a
``SELECT 1 ... LIMIT 1`` probe, evaluated until one hits.

The same builder also serves the store-backed chase
(:mod:`repro.storage.chasestore`): a rule body is compiled with its
variables as the projection and per-alias *round bounds* implementing
semi-naive evaluation (pivot pinned to the delta round, earlier atoms to
strictly older rounds).

Every execution is accounted in the store's telemetry:
``store.sql_queries`` statements run, ``store.rows_scanned`` result rows
fetched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..logic.atoms import Atom
from ..logic.query import ConjunctiveQuery, UnionOfCQs
from ..logic.terms import Term, Variable
from .sqlite import SQLiteStore

# A per-alias round restriction for semi-naive chase evaluation:
# ("eq", r) pins the alias to round r, ("lt", r) to rounds < r.
RoundBound = "tuple[str, int] | None"


@dataclass(frozen=True)
class CompiledSelect:
    """One executable SELECT: SQL text plus resolved term-id params."""

    sql: str
    params: tuple[int, ...]
    arity: int


def build_select(
    atoms: Sequence[Atom],
    select_vars: Sequence[Variable],
    store: SQLiteStore,
    round_bounds: "Sequence[RoundBound] | None" = None,
    limit_one: bool = False,
    distinct: bool = True,
    bound: "dict[Variable, int] | None" = None,
) -> CompiledSelect | None:
    """Compile a conjunction of atoms into a SELECT over the store.

    Returns ``None`` when the conjunction is provably empty against this
    store (a predicate with no fact table, or a ground term never
    interned).  ``select_vars`` orders the projection; with none and
    ``limit_one`` the statement is an existence probe (``SELECT 1 ...
    LIMIT 1``), with some it fetches at most one row.  ``distinct=False``
    drops the DISTINCT (the chase wants raw sigma rows, which already
    biject with homomorphisms when every body variable is projected).
    ``bound`` pins variables to term ids (the store chase's head-bound
    re-derive probes).
    """
    froms: list[str] = []
    where: list[str] = []
    params: list[int] = []
    first_seen: dict[Variable, str] = {}
    for index, item in enumerate(atoms):
        table = store.table_for(item.predicate)
        if table is None:
            return None
        alias = f"t{index}"
        froms.append(f"{table} AS {alias}")
        for position, term in enumerate(item.args):
            column = f"{alias}.a{position}"
            if isinstance(term, Variable):
                seen = first_seen.get(term)
                if seen is None:
                    first_seen[term] = column
                    if bound is not None and term in bound:
                        where.append(f"{column} = ?")
                        params.append(bound[term])
                elif seen != column:
                    where.append(f"{column} = {seen}")
                continue
            if not term.is_ground():
                raise ValueError(
                    f"cannot compile non-ground argument {term!r} (function "
                    "terms over variables are not conjunctive-query slots)"
                )
            term_id = store.term_id(term)
            if term_id is None:
                return None  # never-interned constant: no fact can match
            where.append(f"{column} = ?")
            params.append(term_id)
        if round_bounds is not None and round_bounds[index] is not None:
            kind, bound_round = round_bounds[index]
            operator = {"eq": "=", "lt": "<", "le": "<="}[kind]
            where.append(f"{alias}.round {operator} ?")
            params.append(bound_round)
    columns = []
    for var in select_vars:
        column = first_seen.get(var)
        if column is None:
            raise ValueError(f"projected variable {var!r} does not occur in the body")
        columns.append(column)
    where_sql = f" WHERE {' AND '.join(where)}" if where else ""
    from_sql = ", ".join(froms)
    if columns:
        keyword = "SELECT DISTINCT" if distinct else "SELECT"
        sql = f"{keyword} {', '.join(columns)} FROM {from_sql}{where_sql}"
    else:
        sql = f"SELECT 1 FROM {from_sql}{where_sql}"
    if limit_one:
        sql += " LIMIT 1"
    return CompiledSelect(sql=sql, params=tuple(params), arity=len(columns))


@dataclass(frozen=True)
class CompiledQuery:
    """A UCQ (or single CQ) compiled against one store.

    ``selects`` holds the non-empty disjuncts; ``boolean`` selects the
    execution mode (existence probes vs one UNION statement).  Compiled
    objects are store-specific (table names, interned constant ids) and
    are cached per query shape by ``OMQASession``.
    """

    selects: tuple[CompiledSelect, ...]
    boolean: bool
    arity: int

    def union_sql(self) -> tuple[str, tuple[int, ...]]:
        """The single UNION statement across all compiled disjuncts."""
        sql = " UNION ".join(select.sql for select in self.selects)
        params: tuple[int, ...] = sum(
            (select.params for select in self.selects), ()
        )
        return sql, params


def compile_cq(query: ConjunctiveQuery, store: SQLiteStore) -> CompiledSelect | None:
    """Compile one CQ: answer variables become the projection."""
    return build_select(
        query.atoms,
        query.answer_vars,
        store,
        limit_one=query.is_boolean(),
    )


def compile_ucq(
    ucq: "UnionOfCQs | ConjunctiveQuery", store: SQLiteStore
) -> CompiledQuery:
    """Compile a UCQ against ``store``, dropping provably-empty disjuncts."""
    disjuncts = (
        (ucq,) if isinstance(ucq, ConjunctiveQuery) else tuple(ucq.disjuncts())
    )
    if not disjuncts:
        return CompiledQuery(selects=(), boolean=True, arity=0)
    boolean = disjuncts[0].is_boolean()
    selects = []
    for disjunct in disjuncts:
        compiled = compile_cq(disjunct, store)
        if compiled is not None:
            selects.append(compiled)
    return CompiledQuery(
        selects=tuple(selects),
        boolean=boolean,
        arity=len(disjuncts[0].answer_vars),
    )


def execute_compiled(
    compiled: CompiledQuery, store: SQLiteStore
) -> set[tuple[Term, ...]]:
    """Run a compiled query; decode id rows back into term tuples.

    Boolean queries probe disjunct by disjunct and stop at the first
    witness; non-boolean queries run as one UNION statement so the
    cross-disjunct deduplication happens inside SQLite too; its rows are
    fetched in one call and decoded by the store's ``decode_rows``.
    """
    counters = store.stats.counters
    if not compiled.selects:
        return set()
    if compiled.boolean:
        for select in compiled.selects:
            row = store._select(select.sql, select.params).fetchone()
            if row is not None:
                counters["store.rows_scanned"] += 1
                return {()}
        return set()
    sql, params = compiled.union_sql()
    rows = store._select(sql, params).fetchall()
    counters["store.rows_scanned"] += len(rows)
    return store.decode_rows(rows)


def evaluate_ucq_sql(
    ucq: "UnionOfCQs | ConjunctiveQuery", store: SQLiteStore
) -> set[tuple[Term, ...]]:
    """Compile and run in one go (the no-cache convenience path)."""
    return execute_compiled(compile_ucq(ucq, store), store)
