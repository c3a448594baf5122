"""Homomorphism search: the engine behind chase steps, CQ evaluation,
containment, cores and the Section-8 folding constructions.

Two flavours are provided over one backtracking core:

* **query homomorphisms** — map the *variables* of a set of atoms into an
  instance so that every atom lands on a fact (constants and ground Skolem
  terms must match themselves), and
* **structure homomorphisms** — map the *domain elements* of a source
  instance into a target instance (``h(alpha) in F`` for every fact, as in
  Section 2), optionally fixing some elements.  Here even constants may be
  remapped unless fixed — the paper's definition has no constant-preservation
  requirement, identities are always imposed explicitly.

The search uses the instance's ``(predicate, position, term)`` indexes and a
dynamic fewest-candidates-first atom ordering.

Hot callers (the chase) precompile their patterns once via
:func:`compile_query_patterns` and search with
:func:`iter_pattern_homomorphisms`; an optional
:class:`~repro.telemetry.Telemetry` records search effort (nodes expanded,
index-bucket estimates vs. facts actually scanned, backtrack clashes).

Query *evaluation* (:func:`evaluate`, and through it
:func:`~repro.logic.containment.evaluate_ucq`) needs answer tuples, not
homomorphisms: :func:`project_answers` projects one-atom bodies straight
from the predicate index and cuts every other search once the answer
variables are bound, so each answer costs one witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .atoms import Atom
from .instance import Instance
from .query import ConjunctiveQuery
from .terms import Term, Variable

if TYPE_CHECKING:
    from ..telemetry import Telemetry

# A pattern slot: ("var", key) must be assigned, ("const", term) must match.
_Slot = tuple[str, object]
_Pattern = tuple[Atom, tuple[_Slot, ...]]


@dataclass(frozen=True)
class JoinPlan:
    """Precomputed atom orders for a compiled pattern sequence.

    ``base_order`` drives full (non-delta) searches; ``pivot_orders[i]``
    drives the semi-naive search whose pattern ``i`` is pinned to the
    delta.  An entry of ``None`` means the static order would hit an
    *unbound prefix* (an atom sharing no variable with everything placed
    before it and carrying no constant) — those searches fall back to the
    dynamic fewest-candidates selection.
    """

    base_order: tuple[int, ...] | None
    pivot_orders: tuple[tuple[int, ...] | None, ...]


def connectivity_order(
    patterns: Sequence[_Pattern],
    first: int | None = None,
    bound: Iterable = (),
) -> tuple[tuple[int, ...], bool]:
    """A static join order by greedy variable connectivity.

    Starting from ``first`` (or the syntactically most constrained atom),
    repeatedly append the pattern sharing the most variables with the
    prefix (ties: more constant slots, fewer fresh variables, original
    index).  Returns the order plus whether every non-initial atom was
    *connected* — had a shared variable or a constant — when placed; a
    ``False`` means the order contains an unbound prefix and a dynamic
    search will likely do better.

    ``bound`` seeds the prefix with variables the caller will pin via a
    partial assignment before searching (containment pins the answer
    variables): atoms touching them score as already-joined, so the
    order starts from the anchored part of the body instead of treating
    those atoms as unconstrained.
    """
    remaining = set(range(len(patterns)))
    bound_vars: set = set(bound)
    order: list[int] = []
    connected = True

    def place(index: int) -> None:
        order.append(index)
        remaining.discard(index)
        for kind, value in patterns[index][1]:
            if kind == "var":
                bound_vars.add(value)

    if first is not None:
        place(first)
    while remaining:
        best_index = -1
        best_score: tuple | None = None
        for index in remaining:
            shared = 0
            ground = 0
            fresh = 0
            seen: set = set()
            for kind, value in patterns[index][1]:
                if kind == "const":
                    ground += 1
                elif value in bound_vars:
                    shared += 1
                elif value not in seen:
                    fresh += 1
                    seen.add(value)
            score = (shared, ground, -fresh, -index)
            if best_score is None or score > best_score:
                best_score = score
                best_index = index
        if (
            (order or bound_vars)
            and best_score is not None
            and best_score[0] == 0
            and best_score[1] == 0
        ):
            connected = False
        place(best_index)
    return tuple(order), connected


def plan_join(patterns: Sequence[_Pattern]) -> JoinPlan:
    """Plan a pattern sequence: base order plus one order per delta pivot.

    Orders that would expand an unbound prefix are dropped (``None``) so
    the search keeps its dynamic fewest-candidates behaviour exactly
    where static planning has nothing to offer.
    """
    base_order, base_connected = connectivity_order(patterns)
    pivot_orders: list[tuple[int, ...] | None] = []
    for pivot in range(len(patterns)):
        order, connected = connectivity_order(patterns, first=pivot)
        pivot_orders.append(order if connected else None)
    return JoinPlan(
        base_order=base_order if base_connected else None,
        pivot_orders=tuple(pivot_orders),
    )


def _slots_for_query_atom(item: Atom) -> tuple[_Slot, ...]:
    slots: list[_Slot] = []
    for term in item.args:
        if isinstance(term, Variable):
            slots.append(("var", term))
        elif term.is_ground():
            slots.append(("const", term))
        else:
            raise ValueError(
                f"query atoms must not contain non-ground function terms: {item!r}"
            )
    return tuple(slots)


def compile_query_patterns(atoms: Sequence[Atom]) -> tuple[_Pattern, ...]:
    """Precompile query atoms into match patterns.

    The slot classification (variable vs. ground) per atom position is
    loop-invariant; the chase compiles each rule body once per run instead
    of once per round per rule.
    """
    return tuple((item, _slots_for_query_atom(item)) for item in atoms)


def _slots_for_element_atom(item: Atom, fixed: Mapping[Term, Term]) -> tuple[_Slot, ...]:
    slots: list[_Slot] = []
    for term in item.args:
        if term in fixed:
            slots.append(("const", fixed[term]))
        else:
            slots.append(("var", term))
    return tuple(slots)


def _candidates(
    pattern: _Pattern, instance: Instance, assignment: dict
) -> tuple[int, Iterable[Atom]]:
    """Return (estimated count, candidate facts) for a pattern atom."""
    item, slots = pattern
    best_key: tuple | None = None
    best_count: int | None = None
    for position, (kind, value) in enumerate(slots):
        if kind == "const":
            bound: Term | None = value  # type: ignore[assignment]
        else:
            bound = assignment.get(value)
        if bound is None:
            continue
        count = instance.candidate_count(item.predicate, position, bound)
        if best_count is None or count < best_count:
            best_count = count
            best_key = (item.predicate, position, bound)
            if count == 0:
                break
    if best_key is not None:
        pred, position, bound = best_key
        return best_count or 0, instance.with_term_at(pred, position, bound)
    facts = instance.with_predicate(item.predicate)
    return len(facts), facts


def _fewest_candidates(
    patterns: Sequence[_Pattern],
    used: list[bool],
    instance: Instance,
    assignment: dict,
    restrictions: dict[int, Instance] | None,
) -> tuple[int, int, Iterable[Atom]]:
    """The dynamic atom choice: (index, count, candidates) of the unused
    pattern with the smallest candidate bucket."""
    index = -1
    count: int | None = None
    candidates: Iterable[Atom] = ()
    for candidate_index, pattern in enumerate(patterns):
        if used[candidate_index]:
            continue
        source = restrictions.get(candidate_index, instance) if restrictions else instance
        found_count, found = _candidates(pattern, source, assignment)
        if count is None or found_count < count:
            index, count, candidates = candidate_index, found_count, found
            if found_count == 0:
                break
    return index, count or 0, candidates


def _match(pattern: _Pattern, fact: Atom, assignment: dict) -> dict | None:
    """Try to extend ``assignment`` so that the pattern maps onto ``fact``.

    Returns the new bindings added (possibly empty), or ``None`` on clash.
    """
    _, slots = pattern
    added: dict = {}
    for (kind, value), fact_term in zip(slots, fact.args):
        if kind == "const":
            if value != fact_term:
                return None
            continue
        bound = assignment.get(value)
        if bound is None:
            bound = added.get(value)
        if bound is None:
            added[value] = fact_term
        elif bound != fact_term:
            return None
    return added


# Search-effort accumulator slots (flushed to Telemetry counters in bulk;
# list-index bumps are far cheaper than per-node Counter increments).
_NODES, _ESTIMATED, _SCANNED, _CLASHES = range(4)


def _flush_search_effort(telemetry: "Telemetry", effort: list[int]) -> None:
    counters = telemetry.counters
    counters["hom.nodes"] += effort[_NODES]
    counters["hom.candidates_estimated"] += effort[_ESTIMATED]
    counters["hom.candidates_scanned"] += effort[_SCANNED]
    if effort[_CLASHES]:
        counters["hom.backtrack_clashes"] += effort[_CLASHES]


def _search(
    patterns: list[_Pattern],
    instance: Instance,
    assignment: dict,
    restrictions: dict[int, Instance] | None,
    effort: list[int] | None = None,
    order: Sequence[int] | None = None,
) -> Iterator[dict]:
    """Iterative backtracking join over an explicit frame stack.

    ``restrictions`` optionally forces specific pattern indices to match
    within a different (smaller) instance — the semi-naive chase uses this
    to pin one atom to the most recent delta.

    Atom selection is dynamic fewest-candidates-first by default; with
    ``order`` (a permutation of pattern indices, e.g. a chase plan's
    connectivity order) level ``k`` expands ``patterns[order[k]]`` without
    re-scoring the remaining atoms.  The candidate *facts* at each level
    still come from the smallest index bucket the current bindings allow,
    so a static order only fixes which atom is expanded, never which
    bucket serves it.
    """
    depth_limit = len(patterns)
    if depth_limit == 0:
        yield dict(assignment)
        return
    track = effort is not None
    used = [False] * depth_limit if order is None else None
    # One frame per expanded pattern: [pattern index, candidate facts,
    # next candidate position, keys bound by the current candidate].
    stack: list[list] = []
    descend = True
    while True:
        if descend:
            # Pick the pattern for the next level and push a fresh frame.
            if order is not None:
                index = order[len(stack)]
                source = restrictions.get(index, instance) if restrictions else instance
                count, candidates = _candidates(patterns[index], source, assignment)
            else:
                index, count, candidates = _fewest_candidates(
                    patterns, used, instance, assignment, restrictions
                )
                used[index] = True
            candidate_list = list(candidates)
            if track:
                effort[_NODES] += 1
                effort[_ESTIMATED] += count or 0
                effort[_SCANNED] += len(candidate_list)
            stack.append([index, candidate_list, 0, None])
            descend = False
            continue
        # Advance the top frame to its next matching candidate.
        frame = stack[-1]
        index, candidate_list, position, added = frame
        if added is not None:
            for key in added:
                del assignment[key]
            frame[3] = None
        pattern = patterns[index]
        matched = False
        while position < len(candidate_list):
            fact = candidate_list[position]
            position += 1
            bindings = _match(pattern, fact, assignment)
            if bindings is None:
                if track:
                    effort[_CLASHES] += 1
                continue
            assignment.update(bindings)
            frame[2] = position
            frame[3] = tuple(bindings)
            matched = True
            break
        if not matched:
            stack.pop()
            if used is not None:
                used[index] = False
            if not stack:
                return
            continue
        if len(stack) == depth_limit:
            yield dict(assignment)
        else:
            descend = True


def iter_pattern_homomorphisms(
    patterns: Sequence[_Pattern],
    instance: Instance,
    partial: Mapping[Variable, Term] | None = None,
    delta: Instance | None = None,
    telemetry: "Telemetry | None" = None,
    plan: JoinPlan | None = None,
) -> Iterator[dict[Variable, Term]]:
    """Like :func:`iter_query_homomorphisms` over precompiled patterns.

    With a ``plan`` (see :func:`plan_join`) searches follow the
    precomputed atom orders instead of re-scoring every remaining pattern
    per node, and semi-naive pivots whose predicate has no fact in
    ``delta`` are skipped outright — they cannot yield a match.  Both
    shortcuts change only the work done, never the set of homomorphisms.
    """
    pattern_list = list(patterns)
    base = dict(partial) if partial else {}
    effort = [0, 0, 0, 0] if telemetry is not None else None
    counters = telemetry.counters if telemetry is not None else None
    try:
        if delta is None:
            order = plan.base_order if plan is not None else None
            if order is not None and counters is not None:
                counters["plan.plans_reused"] += 1
            yield from _search(pattern_list, instance, base, None, effort, order)
            return
        if plan is not None:
            live = delta.predicates_with_facts()
            for pivot in range(len(pattern_list)):
                if pattern_list[pivot][0].predicate not in live:
                    if counters is not None:
                        counters["plan.pivots_skipped"] += 1
                        counters["plan.nodes_saved"] += 1
                    continue
                order = plan.pivot_orders[pivot]
                if order is not None and counters is not None:
                    counters["plan.plans_reused"] += 1
                yield from _search(
                    pattern_list, instance, dict(base), {pivot: delta}, effort, order
                )
            return
        for pivot in range(len(pattern_list)):
            yield from _search(pattern_list, instance, dict(base), {pivot: delta}, effort)
    finally:
        # Flush once per search, even when the consumer stops early.
        if telemetry is not None and effort is not None:
            _flush_search_effort(telemetry, effort)


def iter_query_homomorphisms(
    atoms: Sequence[Atom],
    instance: Instance,
    partial: Mapping[Variable, Term] | None = None,
    delta: Instance | None = None,
    telemetry: "Telemetry | None" = None,
) -> Iterator[dict[Variable, Term]]:
    """All homomorphisms of ``atoms`` into ``instance`` extending ``partial``.

    With ``delta``, only homomorphisms using at least one fact of ``delta``
    are produced (semi-naive evaluation); the same homomorphism may then be
    yielded more than once, which chase insertion deduplicates for free.
    """
    yield from iter_pattern_homomorphisms(
        compile_query_patterns(atoms), instance, partial, delta, telemetry
    )


def find_query_homomorphism(
    atoms: Sequence[Atom],
    instance: Instance,
    partial: Mapping[Variable, Term] | None = None,
) -> dict[Variable, Term] | None:
    """The first homomorphism found, or ``None``."""
    for hom in iter_query_homomorphisms(atoms, instance, partial):
        return hom
    return None


def evaluate(query: ConjunctiveQuery, instance: Instance) -> set[tuple[Term, ...]]:
    """All answers of a CQ over an instance."""
    answers: set[tuple[Term, ...]] = set()
    project_answers(query, instance, answers)
    return answers


def project_answers(
    query: ConjunctiveQuery, instance: Instance, answers: set[tuple[Term, ...]]
) -> None:
    """Add ``query``'s answers over ``instance`` to ``answers``.

    Projection, not enumeration: each answer tuple is found once, never
    once per existential witness behind it.

    * A one-atom body whose arguments are pairwise-distinct variables
      projects its predicate's facts directly (a boolean one holds
      exactly when there is such a fact).
    * Any other body runs the dynamic fewest-candidates backtracker with
      a *projection cut*: once every answer variable is bound, a tuple
      already in ``answers`` prunes the subtree, and a new one only
      needs the remaining atoms to have *some* match — the search stops
      at the first witness and unwinds to the cut.  A boolean query is
      cut before its first atom, so it stops at its first witness.

    ``answers`` may already hold tuples (a UCQ's earlier disjuncts); they
    are cut too, which is how a union shares one deduplication.
    """
    patterns = query.compiled_patterns()
    answer_vars = query.answer_vars
    if len(patterns) == 1:
        item, slots = patterns[0]
        positions: dict = {}
        for position, (kind, value) in enumerate(slots):
            if kind != "var" or value in positions:
                break
            positions[value] = position
        else:
            facts = instance.with_predicate(item.predicate)
            if not answer_vars:
                if facts:
                    answers.add(())
            elif len(answer_vars) == 1:
                position = positions[answer_vars[0]]
                answers.update([(fact.args[position],) for fact in facts])
            else:
                pick = itemgetter(*(positions[var] for var in answer_vars))
                answers.update([pick(fact.args) for fact in facts])
            return
    _projection_search(patterns, instance, answer_vars, answers)


def _projection_search(
    patterns: Sequence[_Pattern],
    instance: Instance,
    answer_vars: tuple[Variable, ...],
    answers: set,
) -> None:
    """:func:`_search` with the projection cut of :func:`project_answers`.

    Frames are ``[pattern index, candidate iterator, keys bound by the
    current candidate, answer variables still unbound at this level]``.
    ``cut`` is the stack height of the level that bound the last answer
    variable while an existence probe for ``row`` runs above it, else
    ``-1``.  Facts are iterated straight from the instance's index sets:
    nothing mutates the instance during the search.
    """
    depth_limit = len(patterns)
    wanted = set(answer_vars)
    assignment: dict = {}
    used = [False] * depth_limit
    stack: list[list] = []
    row: tuple = ()
    cut = -1
    if not wanted:
        if () in answers:
            return
        cut = 0
    descend = True
    while True:
        if descend:
            index, _, candidates = _fewest_candidates(
                patterns, used, instance, assignment, None
            )
            used[index] = True
            unbound = 0
            if cut < 0:
                fresh = {
                    value
                    for kind, value in patterns[index][1]
                    if kind == "var" and value in wanted and value not in assignment
                }
                unbound = (stack[-1][3] if stack else len(wanted)) - len(fresh)
            stack.append([index, iter(candidates), None, unbound])
            descend = False
            continue
        frame = stack[-1]
        index, candidates, added, unbound = frame
        if added is not None:
            for key in added:
                del assignment[key]
            frame[2] = None
        pattern = patterns[index]
        for fact in candidates:
            bindings = _match(pattern, fact, assignment)
            if bindings is not None:
                break
        else:
            stack.pop()
            used[index] = False
            if len(stack) == cut:
                cut = -1  # no witness for ``row``: resume at the cut
            if not stack:
                return
            continue
        if cut >= 0:
            if len(stack) < depth_limit:
                assignment.update(bindings)
                frame[2] = tuple(bindings)
                descend = True
                continue
            # A witness: record the row and unwind to the cut.
            answers.add(row)
            while len(stack) > cut:
                popped = stack.pop()
                used[popped[0]] = False
                if popped[2] is not None:
                    for key in popped[2]:
                        del assignment[key]
            cut = -1
            if not stack:
                return
            continue
        assignment.update(bindings)
        frame[2] = tuple(bindings)
        if unbound:
            descend = True
            continue
        row = tuple([assignment[var] for var in answer_vars])
        if row in answers:
            continue
        if len(stack) == depth_limit:
            answers.add(row)
            continue
        cut = len(stack)
        descend = True


def consistent_binding(
    variables: Sequence[Variable], values: Sequence[Term]
) -> dict[Variable, Term] | None:
    """Zip variables to values, failing on inconsistent repeats.

    Answer tuples may repeat a variable (``q(v, v)``); an answer candidate
    then has to carry equal values at the repeated positions.
    """
    if len(variables) != len(values):
        raise ValueError("answer tuple arity mismatch")
    binding: dict[Variable, Term] = {}
    for variable, value in zip(variables, values):
        bound = binding.get(variable)
        if bound is None:
            binding[variable] = value
        elif bound != value:
            return None
    return binding


def holds(
    query: ConjunctiveQuery,
    instance: Instance,
    answer: Sequence[Term] = (),
) -> bool:
    """Does ``instance |= query(answer)``?  For BCQs pass no answer."""
    partial = consistent_binding(query.answer_vars, answer)
    if partial is None:
        return False
    return find_query_homomorphism(query.atoms, instance, partial) is not None


def iter_structure_homomorphisms(
    source: Instance,
    target: Instance,
    fixed: Mapping[Term, Term] | None = None,
) -> Iterator[dict[Term, Term]]:
    """All homomorphisms between structures, extending ``fixed``.

    Every domain element of ``source`` is mappable (constants included);
    elements listed in ``fixed`` are pinned to their images.  The yielded
    mapping covers the full active domain of ``source`` and includes the
    pinned pairs for elements that occur in ``source``.
    """
    fixed = dict(fixed) if fixed else {}
    patterns = [(item, _slots_for_element_atom(item, fixed)) for item in source]
    relevant_fixed = {
        element: image for element, image in fixed.items() if element in source.domain()
    }
    for hom in _search(patterns, target, {}, None):
        hom.update(relevant_fixed)
        yield hom


def find_structure_homomorphism(
    source: Instance,
    target: Instance,
    fixed: Mapping[Term, Term] | None = None,
) -> dict[Term, Term] | None:
    """The first structure homomorphism found, or ``None``."""
    for hom in iter_structure_homomorphisms(source, target, fixed):
        return hom
    return None


def apply_structure_homomorphism(source: Instance, hom: Mapping[Term, Term]) -> Instance:
    """The image ``{h(alpha) : alpha in source}`` (Observation 2)."""
    image = Instance()
    for item in source:
        image.add(Atom(item.predicate, tuple(hom.get(t, t) for t in item.args)))
    return image
