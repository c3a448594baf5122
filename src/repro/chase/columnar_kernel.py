"""The columnar chase kernel: hash-join rule application over term ids.

This is the executor behind ``chase(backend="columnar")`` — the default
engine.  Where :class:`~repro.chase.engine.SequentialRoundExecutor`
backtracks over Python ``Atom``/``Term`` objects,
:class:`ColumnarRoundExecutor` mirrors the current instance into a
:class:`~repro.storage.columnar.ColumnarStore` and evaluates every rule
body as an index-nested-loop hash join over flat tuples of interned
integer ids: per-level candidates come from the smallest per-position
index bucket the current bindings allow, variable bindings are plain
``list`` slots, and Skolem terms are interned id-natively
(:meth:`intern_function`) on first derivation — Python term objects are
only built for the genuinely *new* atoms of a round, which is what makes
deep-Skolem instances cheap (per-atom object overhead was the dominating
cost, see ``docs/performance.md``).

Semantics are the object engine's, exactly:

* each rule runs its :class:`~repro.chase.planner.RuleProgram`, lowered
  once per ``Theory`` and shared with the store chase; the executor only
  binds the program's constants to its mirror's ids.  The planner's
  static join orders are consumed unchanged — base order for full evaluation,
  one pivot order per delta-restricted search, with the same
  relevance/pivot pruning and the same ``plan.*`` counter accounting;
* each pivot search restricts exactly one body atom to the round's
  delta, so the multiset of matches per rule — and hence
  ``chase.matches`` / ``chase.dedup_hits`` — is identical to the
  backtracking engine's (Skolem naming determinism, Observation 8, then
  gives identical atoms);
* an empty body has one empty match, and universal head variables (the
  ``T_d`` family) are extra binding slots filled from the ids of the
  round's domain pool through
  :func:`~repro.chase.engine.universal_matches` — the object engine's
  enumeration, in its order.

Telemetry: join effort lands in the shared ``hom.*`` counters (the
kernel *is* the homomorphism search, columnar); ``columnar.rounds`` /
``columnar.rules`` / ``columnar.matches`` / ``columnar.atoms_produced``
report the kernel's work.  See ``docs/architecture.md`` §9.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Iterator

from ..logic.atoms import Atom
from ..logic.homomorphism import (
    _CLASHES,
    _ESTIMATED,
    _NODES,
    _SCANNED,
    _flush_search_effort,
)
from ..logic.instance import Instance
from ..logic.query import ConjunctiveQuery, UnionOfCQs
from ..logic.signature import Predicate
from ..logic.terms import Term, Variable
from ..storage.columnar import ColumnarStore
from ..telemetry import Telemetry
from .engine import (
    Derivation,
    RoundOutcome,
    _PreparedRule,
    _RoundInterrupt,
    universal_matches,
)
from .planner import CONTROL_CHECK_STRIDE, RuleProgram

_EMPTY: tuple = ()


def _join(
    relations: dict,
    patterns: tuple,
    order: "tuple[int, ...]",
    pivot: "int | None",
    delta_rows: "dict | None",
    binding: list,
    effort: "list[int] | None",
) -> Iterator[list]:
    """Index-nested-loop join; yields the shared ``binding`` list.

    Mirrors ``homomorphism._search`` frame-for-frame, over id rows: one
    frame per expanded pattern, candidates from the smallest index
    bucket among bound positions (the pattern at ``pivot`` draws from
    ``delta_rows`` instead — the semi-naive restriction).  The caller
    must consume each yield before advancing and must not mutate the
    relations mid-search.
    """
    depth = len(order)
    if not depth:  # an empty body has exactly one (empty) match
        yield binding
        return
    track = effort is not None
    # One frame per level: [candidate iterator, slots, bound indexes].
    stack: list[list] = []
    descend = True
    while True:
        if descend:
            index = order[len(stack)]
            predicate, slots = patterns[index]
            if index == pivot:
                candidates: Iterable[tuple] = delta_rows.get(predicate, _EMPTY)
                count = len(candidates)  # type: ignore[arg-type]
            else:
                relation = relations.get(predicate)
                if relation is None:
                    candidates = _EMPTY
                    count = 0
                else:
                    best = None
                    buckets = []
                    bound_ids = []
                    dead = False
                    for position, (is_var, value) in enumerate(slots):
                        term_id = binding[value] if is_var else value
                        bound_ids.append(term_id)
                        if term_id is None:
                            continue
                        bucket = relation.indexes[position].get(term_id)
                        if not bucket:
                            dead = True
                            break
                        buckets.append(bucket)
                        if best is None or len(bucket) < len(best):
                            best = bucket
                    if dead:
                        candidates = _EMPTY
                    elif best is None:
                        candidates = relation.rows
                    elif len(buckets) == len(slots):
                        # Every position is pinned: membership, not a scan.
                        row = tuple(bound_ids)
                        candidates = (row,) if row in relation.rows else _EMPTY
                    elif len(buckets) > 1 and len(best) > 8:
                        # Several pinned positions with big buckets —
                        # intersect at C speed before the Python scan.
                        candidates = best.intersection(
                            *(b for b in buckets if b is not best)
                        )
                    else:
                        candidates = best
                    count = len(candidates)
            if track:
                effort[_NODES] += 1
                effort[_ESTIMATED] += count
            stack.append([iter(candidates), slots, None])
            descend = False
            continue
        frame = stack[-1]
        added = frame[2]
        if added is not None:
            for value in added:
                binding[value] = None
            frame[2] = None
        slots = frame[1]
        matched = False
        for row in frame[0]:
            if track:
                effort[_SCANNED] += 1
            adds: list[int] = []
            ok = True
            for fact_id, (is_var, value) in zip(row, slots):
                if is_var:
                    bound = binding[value]
                    if bound is None:
                        binding[value] = fact_id
                        adds.append(value)
                    elif bound != fact_id:
                        ok = False
                        break
                elif value != fact_id:
                    ok = False
                    break
            if not ok:
                for value in adds:
                    binding[value] = None
                if track:
                    effort[_CLASHES] += 1
                continue
            frame[2] = adds
            matched = True
            break
        if not matched:
            stack.pop()
            if not stack:
                return
            continue
        if len(stack) == depth:
            yield binding
        else:
            descend = True


def _probe_order(
    relations: dict, program: RuleProgram, binding: list
) -> "tuple[int, ...]":
    """``program.base_order`` sorted by each pattern's smallest index
    bucket under ``binding`` (its whole relation when nothing in it is
    bound; 0 when a bound id has no bucket), ties in plan order.

    A head-bound probe pins a few slots the static plan did not know
    about, so the pattern they make selective goes first.
    """
    patterns = program.patterns
    order = program.base_order
    if len(order) < 2:
        return order

    def size(index: int) -> int:
        predicate, slots = patterns[index]
        relation = relations.get(predicate)
        if relation is None:
            return 0
        best = len(relation.rows)
        for position, (is_var, value) in enumerate(slots):
            term_id = binding[value] if is_var else value
            if term_id is not None:
                bucket = relation.indexes[position].get(term_id)
                if bucket is None:
                    return 0
                if len(bucket) < best:
                    best = len(bucket)
        return best

    return tuple(sorted(order, key=size))


class ColumnarRoundExecutor:
    """A drop-in ``run_round`` executor running the columnar kernel.

    Runs over a :class:`ColumnarStore` that mirrors the engine's current
    instance: the round loop's ``sync`` argument (the atoms it applied
    since the previous call) is replayed into the store at the top of
    each round, so the id-side relations and the object-side
    ``Instance`` stay in lock-step without ever re-encoding the whole
    instance.  ``close()`` closes the store; a caller that keeps the
    mirror for a later run (:func:`repro.incremental.incremental_update`)
    takes ``store`` instead of closing.

    Abandoning a round mid-flight (``control`` hit, see
    :class:`~repro.chase.engine._RunControl`) is safe by construction:
    the store only ever receives atoms the engine already applied, and
    the partial ``pending`` production of an interrupted round is never
    synced back.
    """

    control = None

    def __init__(
        self,
        prepared: "tuple[_PreparedRule, ...]",
        store: ColumnarStore,
        telemetry: Telemetry,
    ) -> None:
        self.prepared = prepared
        self.telemetry = telemetry
        self.store = store
        # The shared lowerings, constants bound to this mirror's ids.
        self.programs = tuple(
            rule.program.bind(store.intern_term) for rule in prepared
        )
        # Rows produced last round, keyed by atom, awaiting the engine's
        # decision (applied atoms arrive back through ``sync``).
        self._pending: dict[Atom, tuple[Predicate, tuple]] = {}

    def run_round(
        self,
        current: Instance,
        sync: Iterable[Atom],
        delta: "Instance | None",
        delta_terms: "set[Term] | None",
        domain_pool: "list[Term] | None",
    ) -> RoundOutcome:
        store = self.store
        telemetry = self.telemetry
        counters = telemetry.counters
        pending = self._pending
        sync_rows: dict[Atom, tuple[Predicate, tuple]] = {}
        for atom in sync:
            entry = pending.pop(atom, None)
            if entry is None:  # e.g. a resume seeded outside this executor
                entry = (atom.predicate, store._encode(atom))
            sync_rows[atom] = entry
            store.insert_row(entry[0], entry[1])
        pending.clear()

        delta_rows: "dict[Predicate, list[tuple]] | None" = None
        delta_predicates = None
        if delta is not None:
            # The delta is (almost always) exactly what just came through
            # ``sync`` — reuse those rows instead of re-encoding terms.
            delta_predicates = delta.predicates_with_facts()
            delta_rows = {}
            for atom in delta:
                entry = sync_rows.get(atom)
                row = entry[1] if entry is not None else store._encode(atom)
                delta_rows.setdefault(atom.predicate, []).append(row)

        relations = store._relations
        term_by_id = store.term_by_id
        intern_function = store.intern_function
        produced: dict[Atom, Derivation] = {}
        produced_rows: dict[Predicate, set] = {}
        matches = 0
        dedup_hits = 0
        columnar_rules = 0
        effort = [0, 0, 0, 0]
        control = self.control
        stride = CONTROL_CHECK_STRIDE - 1
        # The round's domain pool as ids, in the pool's order (and its
        # delta/old split), built once for all universal rules.
        pool = split = None
        for prepared, program in zip(self.prepared, self.programs):
            if control is not None:
                reason = control.interruption()
                if reason is not None:
                    raise _RoundInterrupt(reason)
            plan = prepared.plan
            if delta is not None and not plan.relevant(
                delta_predicates, delta_terms
            ):
                counters["plan.rules_skipped"] += 1
                counters["plan.nodes_saved"] += plan.search_count
                continue
            columnar_rules += 1
            patterns = program.patterns
            if delta is None:
                if program.base_planned:
                    counters["plan.plans_reused"] += 1
                searches = ((program.base_order, None),)
            else:
                chosen = []
                for index in range(len(patterns)):
                    if patterns[index][0] not in delta_predicates:
                        counters["plan.pivots_skipped"] += 1
                        counters["plan.nodes_saved"] += 1
                        continue
                    if program.pivot_planned[index]:
                        counters["plan.plans_reused"] += 1
                    chosen.append((program.pivot_orders[index], index))
                searches = tuple(chosen)
            binding: list = [None] * len(program.variables)
            heads = program.heads
            sources: Iterable = (
                _join(relations, patterns, order, pivot, delta_rows, binding, effort)
                for order, pivot in searches
            )
            if program.universal:
                if pool is None:
                    term_id = store.term_id
                    pool = [term_id(term) for term in domain_pool]
                    if delta is not None and delta_terms:
                        split = (
                            [term_id(t) for t in domain_pool if t in delta_terms],
                            [term_id(t) for t in domain_pool if t not in delta_terms],
                        )
                sources = (
                    self._with_universal(
                        program,
                        itertools.chain.from_iterable(sources),
                        binding,
                        pool,
                        split,
                        effort,
                    ),
                )
            for source in sources:
                for bound in source:
                    matches += 1
                    if control is not None and not (matches & stride):
                        reason = control.interruption()
                        if reason is not None:
                            raise _RoundInterrupt(reason)
                    # RuleProgram.head_rows, inlined: the per-match hot loop.
                    for head_predicate, head_slots in heads:
                        out = []
                        for slot in head_slots:
                            kind = slot[0]
                            if kind == "v":
                                out.append(bound[slot[1]])
                            elif kind == "c":
                                out.append(slot[1])
                            else:
                                out.append(
                                    intern_function(
                                        slot[1], tuple(bound[i] for i in slot[2])
                                    )
                                )
                        row = tuple(out)
                        relation = relations.get(head_predicate)
                        if relation is not None and row in relation.rows:
                            dedup_hits += 1
                            continue
                        rows = produced_rows.get(head_predicate)
                        if rows is None:
                            rows = produced_rows[head_predicate] = set()
                        if row in rows:
                            dedup_hits += 1
                            continue
                        new_atom = Atom(
                            head_predicate,
                            tuple(term_by_id(t) for t in row),
                        )
                        produced[new_atom] = Derivation(
                            prepared.skolemized.rule,
                            tuple(
                                (var, term_by_id(bound[index]))
                                for var, index in program.sigma_order
                            ),
                        )
                        rows.add(row)
                        pending[new_atom] = (head_predicate, row)
        if effort[_NODES] or effort[_SCANNED]:
            _flush_search_effort(telemetry, effort)
        counters["columnar.rounds"] += 1
        counters["columnar.rules"] += columnar_rules
        counters["columnar.matches"] += matches
        counters["columnar.atoms_produced"] += len(produced)
        return RoundOutcome(
            produced=produced, matches=matches, dedup_hits=dedup_hits
        )

    def rederive(
        self, cone: Iterable[Atom], survivors: Instance
    ) -> dict[Atom, Derivation]:
        """The cone atoms with a derivation whose body lies in ``survivors``.

        The DRed re-derive of :func:`repro.incremental.incremental_update`
        on id rows.  Like :meth:`run_round` it searches the mirror, which
        must hold exactly ``survivors`` (the surviving atoms plus the new
        base).  One probe per (cone atom, rule head it matches): the
        atom's id row binds the rule's frontier slots
        (:meth:`~repro.chase.planner.RuleProgram.bind_head`), then one
        :func:`_join` of the body, its patterns ordered by
        :func:`_probe_order`, looks for a first witness (``hom.*``
        counts the search).  A hit is recorded as a round's derivation
        is.
        """
        store = self.store
        relations = store._relations
        heads: dict = {}
        for prepared, program in zip(self.prepared, self.programs):
            for predicate, slots in program.heads:
                heads.setdefault(predicate, []).append((prepared, program, slots))
        counters = self.telemetry.counters
        function_parts = store.function_parts
        term_by_id = store.term_by_id
        effort = [0, 0, 0, 0]
        found: dict[Atom, Derivation] = {}
        for item in cone:
            rules = heads.get(item.predicate)
            if rules is None:
                continue
            # Interning, not lookup: a Skolem term that only cone atoms
            # held may be absent from the mirror yet still re-derivable.
            row = store._encode(item)
            for prepared, program, slots in rules:
                binding = program.bind_head(slots, row, function_parts)
                if binding is None:
                    continue
                counters["delta.rederive_probes"] += 1
                order = _probe_order(relations, program, binding)
                witness = _join(
                    relations, program.patterns, order, None, None, binding, effort
                )
                if next(witness, None) is None:
                    continue
                found[item] = Derivation(
                    prepared.skolemized.rule,
                    tuple(
                        (var, term_by_id(binding[index]))
                        for var, index in program.sigma_order
                    ),
                )
                break
        if effort[_NODES] or effort[_SCANNED]:
            _flush_search_effort(self.telemetry, effort)
        return found

    def _with_universal(
        self,
        program: RuleProgram,
        bindings: Iterable,
        binding: list,
        pool: list,
        split: "tuple[list, list] | None",
        effort: list,
    ) -> Iterator[list]:
        """Extend each body binding with the universal slots, in the
        object engine's order (:func:`~repro.chase.engine.universal_matches`).
        """
        counters = self.telemetry.counters

        def all_bindings() -> Iterator[list]:
            if program.base_planned:
                counters["plan.plans_reused"] += 1
            return _join(
                self.store._relations,
                program.patterns,
                program.base_order,
                None,
                None,
                binding,
                effort,
            )

        slots = program.universal
        for bound, values in universal_matches(
            len(slots),
            bindings,
            all_bindings if program.patterns else lambda: (binding,),
            pool,
            split,
        ):
            for index, value in zip(slots, values):
                bound[index] = value
            yield bound

    def close(self) -> None:
        self.store.close()


def make_columnar_executor(
    prepared: "tuple[_PreparedRule, ...]",
    base: Iterable[Atom],
    telemetry: Telemetry,
) -> ColumnarRoundExecutor:
    """A columnar executor over a fresh mirror of ``base``."""
    # The mirror store keeps its own private stats: its write/intern
    # traffic is an executor implementation detail, and folding it into
    # the chase telemetry would make otherwise identical runs (one-shot
    # vs resumed) disagree on store.* counters.
    executor = ColumnarRoundExecutor(prepared, ColumnarStore(), telemetry)
    executor.store.add_many(base)
    return executor


# ----------------------------------------------------------------------
# UCQ evaluation over a columnar store
# ----------------------------------------------------------------------
def _compile_query(cq: ConjunctiveQuery, store: ColumnarStore):
    """Lower one CQ; ``None`` when a constant is provably absent."""
    var_index: dict[Variable, int] = {}
    patterns = []
    for item in cq.atoms:
        slots = []
        for term in item.args:
            if isinstance(term, Variable):
                slots.append(
                    (True, var_index.setdefault(term, len(var_index)))
                )
            else:
                term_id = store.term_id(term)
                if term_id is None:
                    return None
                slots.append((False, term_id))
        patterns.append((item.predicate, tuple(slots)))
    order = cq.join_plan().base_order
    if order is None:
        order = tuple(range(len(patterns)))
    answer = tuple(var_index[var] for var in cq.answer_vars)
    return tuple(patterns), order, len(var_index), answer


def _project_rows(
    relations: dict, compiled: tuple, rows: "set[tuple[int, ...]]"
) -> None:
    """Add one lowered CQ's distinct answer id rows to ``rows``.

    The id-space twin of :func:`~repro.logic.homomorphism.project_answers`:
    a one-atom body over pairwise-distinct variables projects
    ``relation.rows`` directly; any other body joins its static order up
    to the *cut* — the first level by which every answer variable is
    bound — and, for a row not yet in ``rows``, probes the remaining
    levels for one witness only.
    """
    patterns, order, var_count, answer = compiled
    if len(patterns) == 1:
        predicate, slots = patterns[0]
        # Variables are numbered in first-occurrence order, so a body of
        # pairwise-distinct variables numbers them by position.
        if var_count == len(slots) and all(is_var for is_var, _ in slots):
            relation = relations.get(predicate)
            if relation is None or not relation.rows:
                return
            if not answer:
                rows.add(())
            elif answer == tuple(range(var_count)):
                rows.update(relation.rows)
            elif len(answer) == 1:
                position = answer[0]
                rows.update([(row[position],) for row in relation.rows])
            else:
                rows.update(map(itemgetter(*answer), relation.rows))
            return
    wanted = set(answer)
    cut = 0
    while wanted:
        wanted.difference_update(
            value for is_var, value in patterns[order[cut]][1] if is_var
        )
        cut += 1
    prefix, suffix = order[:cut], order[cut:]
    binding: list = [None] * var_count
    for bound in _join(relations, patterns, prefix, None, None, binding, None):
        row = tuple([bound[index] for index in answer])
        if row in rows:
            continue
        # The probe binds a copy: a join stopped at its first witness
        # leaves its bindings set, and the prefix join must not see them.
        if suffix and next(
            _join(relations, patterns, suffix, None, None, list(bound), None), None
        ) is None:
            continue
        rows.add(row)


def evaluate_ucq_columnar(
    query: "UnionOfCQs | ConjunctiveQuery", store: ColumnarStore
) -> set[tuple]:
    """All certain answers of a (U)CQ over a columnar store's facts.

    The id-native analogue of ``evaluate_ucq_sql``: every disjunct
    projects into one set of distinct id rows (see :func:`_project_rows`),
    and each distinct row is decoded to terms once, at the end.  Boolean
    queries stop at the first witness; disjuncts mentioning
    never-interned constants or absent predicates are pruned for free.
    """
    disjuncts = (
        query.disjuncts()
        if isinstance(query, UnionOfCQs)
        else (query,)
    )
    rows: set[tuple[int, ...]] = set()
    relations = store._relations
    for cq in disjuncts:
        compiled = _compile_query(cq, store)
        if compiled is None:
            continue
        _project_rows(relations, compiled, rows)
        if () in rows:
            break
    return store.decode_rows(rows)
