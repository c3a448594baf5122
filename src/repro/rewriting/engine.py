"""UCQ rewriting by saturation: computing ``rew(psi)`` of Theorem 1.

Breadth-first application of piece unifiers with containment-based pruning:
a newly produced CQ is kept only when no kept CQ already contains it, and it
evicts kept CQs it contains.  Every kept CQ is replaced by its core first,
so the final set is exactly the *minimal* rewriting set of Theorem 1 (up to
CQ isomorphism) whenever saturation completes.

For theories that are not BDD the saturation does not terminate; budgets
turn that into an explicit ``complete=False`` outcome, which the BDD
diagnostics of :mod:`repro.rewriting.bdd` interpret.

Fast path
---------

The loop stores every kept disjunct as its *canonical form*
(:mod:`repro.rewriting.canonical`) and prunes in three layers before any
NP-hard containment search runs:

1. **Canonical-key dedup** — the kept set is a dict keyed by the canonical
   isomorphism key, so a rewriting step that merely reproduces a kept
   disjunct with fresh variable names dies in one hash probe
   (``rewrite.dedup_hits``) instead of a homomorphism search.
2. **Subsumption indexing** — an inverted predicate → kept-key index,
   maintained incrementally.  Containment ``phi ⊒ psi`` needs a
   homomorphism ``psi → phi``, which requires ``preds(psi) ⊆ preds(phi)``;
   the drop scan therefore only visits kept CQs whose predicate set is a
   subset of the produced CQ's, and the evict scan only those whose
   predicate set is a superset (``rewrite.subsumption_skipped`` counts the
   candidates the index proved hopeless).  Atom *counts* are deliberately
   not used: a homomorphism may collapse atoms non-injectively (the core
   ``E(x,y), E(y,z)`` maps into the single atom ``E(u,u)``), so a
   size-based filter would be unsound — this is a knowing deviation from
   the issue text, which suggested one.
3. **Relevance-filtered unifiers** — a per-:class:`Theory` memoized
   head-predicate → rule index (mirroring the chase planner's prepared
   rules) restricts each frontier CQ to rules whose head shares a
   predicate with it; a piece unifier starts from an equal-predicate
   (query atom, head atom) pair, so skipped rules
   (``rewrite.rules_skipped``) provably admit none.

All three filters only skip work whose outcome is forced, so the kept set,
the frontier, and the ``rewrite.steps`` / ``rewrite.produced`` /
``rewrite.evicted`` counters are identical with ``use_indexes=False``
(the naive reference mode benches and property tests compare against).

Three shortcuts cut per-step work in both modes, again only where the
result is forced, so every disjunct and counter is unchanged:

* **Each rule is renamed apart once per theory**, into the ``_rw<i>_``
  namespace, and cached beside the head-predicate index.  Frontier CQs
  are canonical (``_ca*`` / ``_ce*`` variables), so the renamed rule
  never shares a variable with the CQ it is unified with.
* **A produced CQ with pairwise distinct predicates skips the folding
  search** (:func:`repro.logic.containment.core_query`): every
  endomorphism fixes each atom, so the CQ is its own core.
* **Canonical labeling skips the individualization search when only
  one labeling is possible** (:mod:`repro.rewriting.canonical`).

The loop is breadth-first: each pass takes the whole frontier as one
batch and visits its CQs in order.  For each CQ it walks the piece
rewritings rule by rule, in unifier order, and applies the kept-set logic
(dedup, subsumption, eviction, budget stops, counters) to each one as it
is produced.  Everything a batch produces joins the next frontier, so
the batch always precedes what it produces.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from ..logic.containment import core_query, is_contained_in
from ..logic.query import ConjunctiveQuery, UnionOfCQs
from ..logic.signature import Predicate
from ..logic.terms import FreshVariables, Variable
from ..logic.tgd import TGD, Theory
from ..telemetry import Telemetry
from .canonical import _EXIST_PREFIX, canonical_form, canonical_key, label_variable
from .unification import EmptyRewriting, renamed_piece_unifiers


@dataclass
class RewritingResult:
    """The outcome of rewriting saturation.

    ``ucq``
        The rewriting set computed so far (all of ``rew(psi)`` when
        ``complete``).  Disjuncts are canonically renamed
        (:func:`repro.rewriting.canonical.canonical_form`, presented over
        the original answer-variable names), so the set is independent of
        the fresh-variable naming history.
    ``complete``
        ``True`` when saturation reached a fixpoint within budget; only
        then is the set guaranteed to be the full rewriting.
    ``always_true``
        Set when some rewriting chain consumed the whole query against
        empty-bodied rules: the query is entailed on every instance with a
        non-empty domain (and on the empty instance too when the final rule
        had no universal variables).  Boolean-query evaluation must OR this
        flag in.
    ``explored``
        Number of rewriting steps attempted (a work measure for benches).
    ``stats``
        Saturation telemetry: ``rewrite.*`` counters (pieces unified,
        dedup hits, subsumption checks performed and skipped, evictions,
        peak queue length) and phase time.
    """

    query: ConjunctiveQuery
    theory: Theory
    ucq: UnionOfCQs
    complete: bool
    always_true: bool = False
    explored: int = 0
    stats: Telemetry = field(default_factory=Telemetry)

    def max_disjunct_size(self) -> int:
        """``rs_T(psi)``: the largest disjunct size (Section 7)."""
        return self.ucq.max_disjunct_size()


@dataclass
class RewritingBudget:
    """Resource limits for saturation (generous defaults for small inputs)."""

    max_kept: int = 2_000
    max_steps: int = 200_000
    max_disjunct_atoms: int = 64
    # Ablation switch (bench A3): skip evicting kept CQs subsumed by newly
    # produced, more general ones.  Harmless for completeness (the general
    # query still joins the set) but the kept set — and hence every later
    # containment check — grows.  NOTE: core minimization itself is *not*
    # optional: a redundant atom blocks piece unifiers (its variables leak
    # out of every piece), so skipping cores loses completeness.
    evict_subsumed: bool = True
    # Ablation switch: disable canonical-key dedup, the predicate-indexed
    # subsumption scans and rule relevance filtering.  The kept set and
    # the step/produced/evicted counters are identical either way (the
    # filters only skip provably-failing work); only the check/skip
    # accounting differs.  The bench guard measures naive-vs-indexed on
    # exactly this switch.
    use_indexes: bool = True


# Rewriting steps that produce no CQ to keep.
_EMPTY = "empty"  # EmptyRewriting: the query is unconditionally true
_SKIP = "skip"  # an answer variable lost its last atom (see rewrite())
_OVERSIZE = "oversize"  # produced CQ exceeds max_disjunct_atoms


# ----------------------------------------------------------------------
# Per-Theory rule data: head-predicate index and renamed-apart rules
# ----------------------------------------------------------------------


class _TheoryRules(NamedTuple):
    """What saturation needs of a theory, computed once per ``Theory``.

    ``by_head`` maps a head predicate to the indices of the rules carrying
    it.  ``renamed`` holds each rule renamed apart into the ``_rw<i>_``
    namespace, with its variable set.  Frontier CQs are canonical (only
    ``_ca*`` / ``_ce*`` variables), so one renaming per rule keeps every
    rule apart from every query the loop unifies it with.
    """

    by_head: dict[Predicate, tuple[int, ...]]
    renamed: tuple[tuple[TGD, frozenset[Variable]], ...]


_RULE_INDEX_CACHE: "weakref.WeakKeyDictionary[Theory, _TheoryRules]"
_RULE_INDEX_CACHE = weakref.WeakKeyDictionary()


def _theory_rules(theory: Theory) -> _TheoryRules:
    """The theory's :class:`_TheoryRules`, built on first use.

    Threads may race to build it; ``setdefault`` keeps the first entry
    stored, and every build is equal anyway.
    """
    cached = _RULE_INDEX_CACHE.get(theory)
    if cached is None:
        buckets: dict[Predicate, dict[int, None]] = {}
        renamed = []
        for rule_index, rule in enumerate(theory):
            for item in rule.head:
                buckets.setdefault(item.predicate, {})[rule_index] = None
            variant = rule.rename_apart(FreshVariables(prefix=f"_rw{rule_index}_"))
            renamed.append((variant, frozenset(variant.variables())))
        built = _TheoryRules(
            {pred: tuple(indices) for pred, indices in buckets.items()},
            tuple(renamed),
        )
        cached = _RULE_INDEX_CACHE.setdefault(theory, built)
    return cached


def _relevant_rule_indices(
    index: dict[Predicate, tuple[int, ...]], query: ConjunctiveQuery
) -> list[int]:
    """Rules whose head shares a predicate with ``query``, in theory order."""
    found: set[int] = set()
    for pred in query.predicates():
        found.update(index.get(pred, ()))
    return sorted(found)


def _piece_rewritings(
    query: ConjunctiveQuery,
    renamed: Sequence[tuple[TGD, frozenset[Variable]]],
    rule_indices: Sequence[int],
    max_disjunct_atoms: int,
) -> Iterator[ConjunctiveQuery | str]:
    """The rewriting steps of one frontier CQ, rule by rule, lazily.

    Yields the cored canonical form of each produced CQ, or one of
    ``_EMPTY`` / ``_SKIP`` / ``_OVERSIZE`` for a step that produces
    nothing to keep.
    """
    for rule_index in rule_indices:
        rule, rule_vars = renamed[rule_index]
        for unifier in renamed_piece_unifiers(query, rule, rule_vars):
            try:
                produced = unifier.rewrite(query)
            except EmptyRewriting:
                yield _EMPTY
                continue
            except ValueError:
                yield _SKIP
                continue
            if produced.size > max_disjunct_atoms:
                yield _OVERSIZE
                continue
            yield canonical_form(core_query(produced))


# ----------------------------------------------------------------------
# The kept set: canonical-key dict plus inverted predicate index
# ----------------------------------------------------------------------


class _KeptSet:
    """Kept disjuncts keyed by canonical isomorphism key.

    Each entry also records its insertion sequence number (candidate scans
    run in insertion order, like the naive list scan they replace) and its
    predicate set (the subset/superset filters).  The inverted
    predicate -> keys index is maintained incrementally on add/remove.
    """

    __slots__ = ("entries", "by_predicate", "use_indexes", "_next_seq")

    def __init__(self, use_indexes: bool) -> None:
        # key -> (seq, query, predicate frozenset)
        self.entries: dict[tuple, tuple[int, ConjunctiveQuery, frozenset]] = {}
        self.by_predicate: dict[Predicate, set[tuple]] = {}
        self.use_indexes = use_indexes
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self.entries

    def queries(self) -> list[ConjunctiveQuery]:
        return [query for _, query, _ in self.entries.values()]

    def add(self, key: tuple, query: ConjunctiveQuery) -> None:
        preds = frozenset(query.predicates())
        self.entries[key] = (self._next_seq, query, preds)
        self._next_seq += 1
        if self.use_indexes:
            for pred in preds:
                self.by_predicate.setdefault(pred, set()).add(key)

    def remove(self, key: tuple) -> None:
        _, _, preds = self.entries.pop(key)
        if self.use_indexes:
            for pred in preds:
                self.by_predicate[pred].discard(key)

    def all_entries(self) -> list[tuple[int, tuple, ConjunctiveQuery]]:
        return [
            (seq, key, query) for key, (seq, query, _) in self.entries.items()
        ]

    def drop_candidates(
        self, preds: frozenset
    ) -> list[tuple[int, tuple, ConjunctiveQuery]]:
        """Kept CQs that could *contain* a produced CQ with predicates ``preds``.

        Containment needs a homomorphism kept -> produced, hence
        ``preds(kept) ⊆ preds``: union the produced predicates' buckets,
        then keep the subset-satisfying entries, in insertion order.
        """
        seen: set[tuple] = set()
        out: list[tuple[int, tuple, ConjunctiveQuery]] = []
        for pred in preds:
            for key in self.by_predicate.get(pred, ()):
                if key in seen:
                    continue
                seen.add(key)
                seq, query, kept_preds = self.entries[key]
                if kept_preds <= preds:
                    out.append((seq, key, query))
        out.sort()
        return out

    def evict_candidates(
        self, preds: frozenset
    ) -> list[tuple[int, tuple, ConjunctiveQuery]]:
        """Kept CQs a produced CQ with predicates ``preds`` could contain.

        The homomorphism runs produced -> kept, hence
        ``preds ⊆ preds(kept)``: intersect the buckets of every produced
        predicate, in insertion order.
        """
        keys: set[tuple] | None = None
        for pred in preds:
            bucket = self.by_predicate.get(pred)
            if not bucket:
                return []
            keys = set(bucket) if keys is None else keys & bucket
            if not keys:
                return []
        out = []
        for key in keys or ():
            seq, query, _ = self.entries[key]
            out.append((seq, key, query))
        out.sort()
        return out


def _presentable(
    original: ConjunctiveQuery, canonical: ConjunctiveQuery
) -> ConjunctiveQuery:
    """A disjunct renamed for human output, caches preserved.

    The kept set stores canonical forms (variables ``_ca<i>`` /
    ``_ce<j>``); the result renames answer variables back to the original
    query's names (canonical answer labels are first-occurrence positions
    of the answer tuple, so the mapping is positional) and existential
    variables to ``_e<j>``.  The renaming is a deterministic bijection,
    so the output stays byte-stable and the canonical caches survive it.
    """
    renaming: dict[Variable, Variable] = {}
    answer_names: set[str] = set()
    for position, var in enumerate(canonical.answer_vars):
        if var not in renaming:
            renaming[var] = original.answer_vars[position]
            answer_names.add(original.answer_vars[position].name)
    for var in canonical.existential_vars():
        label = int(var.name[len(_EXIST_PREFIX):])
        if f"_e{label}" in answer_names:  # programmatic ``_e*`` answer names
            return canonical
        renaming[var] = label_variable("_e", label)
    renamed = canonical.substitute(renaming)
    object.__setattr__(renamed, "_canonical_form", canonical)
    object.__setattr__(
        renamed, "_canonical_key", canonical.__dict__["_canonical_key"]
    )
    return renamed


# ----------------------------------------------------------------------
# The saturation loop
# ----------------------------------------------------------------------


def rewrite(
    theory: Theory,
    query: ConjunctiveQuery,
    budget: RewritingBudget | None = None,
    telemetry: Telemetry | None = None,
) -> RewritingResult:
    """Saturate piece-rewriting from ``query`` under ``theory``.

    Returns the minimized UCQ rewriting.  Disjuncts whose size exceeds
    ``budget.max_disjunct_atoms`` mark the result incomplete rather than
    being explored further (they usually signal a non-BDD theory).

    One knowing deviation (documented in DESIGN.md): a rewriting step that
    would leave an *answer* variable without any atom (possible only with
    empty-bodied rules) is skipped — expressing it would need a
    domain-membership predicate outside CQ syntax.

    ``telemetry`` lets callers supply a hook-carrying collector; by default
    a fresh one is created and returned as ``RewritingResult.stats``.
    """
    budget = budget or RewritingBudget()
    telemetry = telemetry if telemetry is not None else Telemetry()
    counters = telemetry.counters
    rules = _theory_rules(theory)
    use_indexes = budget.use_indexes

    start = canonical_form(core_query(query))
    kept = _KeptSet(use_indexes)
    kept.add(canonical_key(start), start)
    frontier: list[ConjunctiveQuery] = [start]
    explored = 0
    complete = True
    always_true = False
    stopped = False

    with telemetry.phase("rewrite"):
        while frontier and not stopped:
            batch = frontier
            frontier = []
            for position, current in enumerate(batch):
                if canonical_key(current) not in kept:
                    counters["rewrite.evicted_while_queued"] += 1
                    continue
                if use_indexes:
                    indices: Sequence[int] = _relevant_rule_indices(
                        rules.by_head, current
                    )
                    counters["rewrite.rules_skipped"] += len(theory) - len(indices)
                else:
                    indices = range(len(theory))
                for produced in _piece_rewritings(
                    current, rules.renamed, indices, budget.max_disjunct_atoms
                ):
                    explored += 1
                    counters["rewrite.steps"] += 1
                    if explored > budget.max_steps:
                        complete = False
                        stopped = True
                        break
                    if produced is _EMPTY:
                        always_true = True
                        continue
                    if produced is _SKIP:
                        continue
                    if produced is _OVERSIZE:
                        counters["rewrite.oversize_dropped"] += 1
                        complete = False
                        continue
                    produced_key = canonical_key(produced)
                    if use_indexes and produced_key in kept:
                        counters["rewrite.dedup_hits"] += 1
                        continue
                    produced_preds = frozenset(produced.predicates())
                    if use_indexes:
                        candidates = kept.drop_candidates(produced_preds)
                        counters["rewrite.subsumption_skipped"] += len(
                            kept
                        ) - len(candidates)
                    else:
                        candidates = kept.all_entries()
                    checks = 0
                    subsumed = False
                    for _, _, existing in candidates:
                        checks += 1
                        if is_contained_in(produced, existing):
                            subsumed = True
                            break
                    counters["rewrite.subsumption_checks"] += checks
                    if subsumed:
                        counters["rewrite.subsumed_dropped"] += 1
                        continue
                    if budget.evict_subsumed:
                        if use_indexes:
                            victims = kept.evict_candidates(produced_preds)
                            counters["rewrite.subsumption_skipped"] += len(
                                kept
                            ) - len(victims)
                        else:
                            victims = kept.all_entries()
                        counters["rewrite.subsumption_checks"] += len(victims)
                        evicted = 0
                        for _, victim_key, existing in victims:
                            if is_contained_in(existing, produced):
                                kept.remove(victim_key)
                                evicted += 1
                        counters["rewrite.evicted"] += evicted
                    kept.add(produced_key, produced)
                    counters["rewrite.produced"] += 1
                    frontier.append(produced)
                    telemetry.gauge_max(
                        "rewrite.queue_peak",
                        len(frontier) + len(batch) - position - 1,
                    )
                    if len(kept) > budget.max_kept:
                        complete = False
                        stopped = True
                        break
                if stopped:
                    break

    counters["rewrite.kept"] = len(kept)
    disjuncts = [_presentable(query, entry) for entry in kept.queries()]
    return RewritingResult(
        query=query,
        theory=theory,
        ucq=UnionOfCQs(disjuncts, name=f"rew({query!r})"),
        complete=complete,
        always_true=always_true,
        explored=explored,
        stats=telemetry,
    )


def rewriting_size(
    theory: Theory, query: ConjunctiveQuery, budget: RewritingBudget | None = None
) -> int:
    """``rs_T(psi)`` — the maximal disjunct size of the rewriting.

    Raises when saturation did not complete (the measure would be a lie).
    """
    result = rewrite(theory, query, budget)
    if not result.complete:
        raise RuntimeError("rewriting did not complete within budget")
    return result.max_disjunct_size()


def atomic_rewriting_sizes(
    theory: Theory, budget: RewritingBudget | None = None
) -> dict[str, int]:
    """``rs^at_T`` per predicate: rewriting sizes of all atomic queries.

    Builds, for every predicate of the theory, the atomic query with
    pairwise-distinct answer variables, and rewrites it.
    """
    from ..logic.atoms import Atom
    from ..logic.terms import Variable

    sizes: dict[str, int] = {}
    for predicate in sorted(theory.predicates(), key=lambda p: p.name):
        variables = tuple(Variable(f"y{i}") for i in range(predicate.arity))
        atomic = ConjunctiveQuery(variables, (Atom(predicate, variables),))
        sizes[predicate.name] = rewriting_size(theory, atomic, budget)
    return sizes
