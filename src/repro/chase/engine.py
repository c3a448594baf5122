"""The semi-oblivious Skolem chase (Definition 6).

``Ch_0 = D`` and ``Ch_{i+1} = Ch_i + {appl(rho, sigma) : rho in T, sigma in
Hom(rho, Ch_i)}``.  The engine materializes the rounds breadth-first with
semi-naive evaluation: because Skolem naming is deterministic, a rule match
whose body already lay in ``Ch_{i-1}`` produced the very same atoms in round
``i``, so only matches touching the latest delta need to be re-derived —
the per-round semantics of Definition 6 is preserved exactly.

Rules with empty bodies are supported: a *universal* head variable (see
:class:`repro.logic.tgd.TGD`) ranges over the active domain, so the
``forall x (true -> exists z. R(x,z))`` rules of the theory ``T_d`` fire for
every element, including elements invented by earlier rounds.
:func:`universal_matches` is the one enumeration of those assignments;
the columnar kernel and the store-backed chase call it too.

The engine records one *derivation* ``(rule, sigma)`` per produced atom — a
parent function in the sense of Appendix A — from which
:mod:`repro.chase.provenance` reconstructs birth atoms, frontiers and
ancestor sets.

Resource limits are a :class:`ChaseBudget`; :func:`chase` and
:func:`resume` share one round loop (:func:`_run_rounds`), which carries a
:class:`~repro.telemetry.Telemetry` recording per-round counters (matches
attempted, atoms produced, dedup hits, delta sizes, wall time) surfaced as
``ChaseResult.stats``.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from ..logic.atoms import Atom
from ..logic.homomorphism import compile_query_patterns, iter_pattern_homomorphisms
from ..logic.instance import Instance
from ..logic.terms import Term, Variable
from ..logic.tgd import TGD, Theory
from ..telemetry import Telemetry
from .planner import RulePlan, plan_rule
from .skolem import SkolemizedRule, skolemize


class ChaseBudgetExceeded(RuntimeError):
    """Raised by :func:`chase` with ``on_exceeded='raise'`` when limits hit."""


class ChaseCancelled(ChaseBudgetExceeded):
    """Raised under ``on_exceeded='raise'`` when a run is cancelled.

    A subclass of :class:`ChaseBudgetExceeded` so existing overrun
    handlers keep working; catch this one specifically to tell a user
    interrupt apart from a resource overrun.
    """


class CancellationToken:
    """Cooperative cancellation signal for long-running engine calls.

    Pass one token as ``cancel=`` to :func:`chase` / :func:`resume` /
    :func:`repro.storage.chase_into_store` /
    :func:`repro.rewriting.answer` (or construct
    :class:`repro.rewriting.OMQASession` with it), then call
    :meth:`cancel` from any thread — typically a signal handler; the CLI
    wires SIGINT to exactly this.  The engine checks the token at round
    boundaries and on a stride inside long rounds, abandons the round in
    flight *without applying its partial production*, and stops per the
    budget's ``on_exceeded`` policy with the ``chase.cancelled`` counter
    set.  The surviving prefix is exact (Observation 8), so the run is
    resumable to the identical fixpoint.

    Tokens are one-shot and thread-safe; they do not reset.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, safe from signal handlers)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        return f"CancellationToken(cancelled={self.cancelled})"


class _RoundInterrupt(Exception):
    """Internal: an executor abandoned its round (deadline/cancellation).

    Never escapes :func:`_run_rounds`; ``reason`` is ``"cancelled"`` or
    ``"deadline"``.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _RunControl:
    """Deadline clock + cancellation token for one engine run.

    Built once at run start (the monotonic deadline is anchored there)
    and consulted at round boundaries by the round loop and on a stride
    (``planner.CONTROL_CHECK_STRIDE``) inside executors' work-item
    loops.  ``start`` returns ``None`` when there is nothing to watch,
    so uncontrolled runs pay a single ``is None`` check per round.
    """

    __slots__ = ("deadline_at", "token")

    def __init__(self, deadline_at: float | None, token: CancellationToken | None):
        self.deadline_at = deadline_at
        self.token = token

    @classmethod
    def start(
        cls, budget: ChaseBudget, token: "CancellationToken | None"
    ) -> "_RunControl | None":
        if budget.deadline_s is None and token is None:
            return None
        deadline_at = (
            None
            if budget.deadline_s is None
            else time.monotonic() + budget.deadline_s
        )
        return cls(deadline_at, token)

    def interruption(self) -> str | None:
        """``"cancelled"`` / ``"deadline"`` when the run must stop, else None."""
        token = self.token
        if token is not None and token.cancelled:
            return "cancelled"
        deadline_at = self.deadline_at
        if deadline_at is not None and time.monotonic() >= deadline_at:
            return "deadline"
        return None


@dataclass(frozen=True)
class ChaseBudget:
    """Resource limits for a chase run (mirrors ``RewritingBudget``).

    ``on_exceeded`` picks the overrun behaviour: ``'return'`` hands back
    the truncated result with ``terminated=False``, ``'raise'`` throws
    :class:`ChaseBudgetExceeded`.  Instances are frozen so they can be
    shared across runs and stored on sessions.

    ``deadline_s`` bounds the run by wall clock (monotonic, anchored
    when the run starts): the engine checks it at round boundaries and
    on a stride inside long rounds, abandons the round in flight without
    applying its partial production, and stops per ``on_exceeded`` with
    the ``chase.deadline_hit`` counter set — the surviving prefix is
    exact and resumable (see ``docs/robustness.md``).
    """

    max_rounds: int = 50
    max_atoms: int = 200_000
    on_exceeded: str = "return"
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.on_exceeded not in ("return", "raise"):
            raise ValueError("on_exceeded must be 'return' or 'raise'")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be non-negative when set")


@dataclass(frozen=True)
class Derivation:
    """One way an atom was produced: ``atom = appl(rule, sigma)``."""

    rule: TGD
    sigma: tuple[tuple[Variable, Term], ...]

    def mapping(self) -> dict[Variable, Term]:
        return dict(self.sigma)

    def frontier_image(self) -> set[Term]:
        """``fr(alpha)``: the images of the rule's frontier variables."""
        mapping = self.mapping()
        return {mapping[var] for var in self.rule.frontier() if var in mapping}

    def body_image(self) -> list[Atom]:
        """``sigma(body(rule))``: the parent atoms (Appendix A)."""
        mapping = self.mapping()
        return [item.substitute(mapping) for item in self.rule.body]


@dataclass
class ChaseResult:
    """The outcome of running the chase for a number of rounds.

    ``round_added[i]`` holds the atoms that first appear in ``Ch_i`` (index
    0 is the input instance).  ``terminated`` is ``True`` when a fixpoint
    was reached, i.e. the final round added nothing new and the result *is*
    ``Ch(T, D)``.  ``stats`` carries the run's telemetry: per-round records
    (one per executed round, including the empty fixpoint-confirming one)
    plus ``chase.*`` / ``hom.*`` counters and phase timings.
    """

    theory: Theory
    base: Instance
    instance: Instance
    round_added: list[frozenset[Atom]]
    terminated: bool
    derivations: dict[Atom, Derivation] = field(default_factory=dict)
    stats: Telemetry = field(default_factory=Telemetry)
    _depth_index: dict[Atom, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _depth_index_rounds: int = field(default=-1, init=False, repr=False, compare=False)
    # What an incremental update hands the next one (the provenance index
    # and the columnar mirror, see repro.incremental); chase() never sets it.
    _maintenance: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def rounds_run(self) -> int:
        return len(self.round_added) - 1

    def prefix(self, depth: int) -> Instance:
        """``Ch_depth(T, D)`` — all atoms of depth at most ``depth``."""
        collected = Instance()
        for added in self.round_added[: depth + 1]:
            collected.update(added)
        return collected

    def depth_of(self, item: Atom) -> int | None:
        """The round in which ``item`` first appeared, or ``None``.

        Served from a lazily built atom-to-round dictionary (the rounds
        partition the instance, so one dict answers every query in O(1)
        after an O(instance) build).  The index is keyed to the number of
        recorded rounds, so results extended by :func:`resume` — which
        builds a fresh ``ChaseResult`` — never serve stale depths.
        """
        index = self._depth_index
        if index is None or self._depth_index_rounds != len(self.round_added):
            index = {}
            for depth, added in enumerate(self.round_added):
                for atom in added:
                    index.setdefault(atom, depth)
            self._depth_index = index
            self._depth_index_rounds = len(self.round_added)
        return index.get(item)

    def new_atoms(self) -> Instance:
        """Everything produced by the chase (``Ch \\ D``)."""
        produced = Instance()
        for added in self.round_added[1:]:
            produced.update(added)
        return produced


@dataclass(frozen=True)
class _PreparedRule:
    """A skolemized rule with loop-invariant match structures precompiled.

    ``plan`` (see :mod:`repro.chase.planner`) carries the static join
    orders, body-predicate set and universal-variable order computed once
    per chase and consulted every round.
    """

    skolemized: SkolemizedRule
    body_patterns: tuple
    plan: RulePlan


_PREPARED_CACHE: "weakref.WeakKeyDictionary[Theory, tuple[_PreparedRule, ...]]" = (
    weakref.WeakKeyDictionary()
)


def _prepare_rules(theory: Theory) -> tuple[_PreparedRule, ...]:
    """Skolemize and plan every rule, cached per (identity of) theory.

    Locality and support searches chase the same theory over hundreds of
    sub-instances; skolemization and join planning are deterministic per
    rule, so the prepared tuple is shared (it is immutable and read-only
    in the round loop).  The weak keying keeps throwaway theories
    collectable.
    """
    cached = _PREPARED_CACHE.get(theory)
    if cached is not None:
        return cached
    prepared = []
    for rule in theory:
        skolemized = skolemize(rule)
        body_patterns = compile_query_patterns(rule.body)
        prepared.append(
            _PreparedRule(
                skolemized=skolemized,
                body_patterns=body_patterns,
                plan=plan_rule(rule, body_patterns),
            )
        )
    result = tuple(prepared)
    _PREPARED_CACHE[theory] = result
    return result


def _universal_assignments(count: int, pool: list) -> Iterator[tuple]:
    """Every ``count``-tuple over ``pool`` (terms or interned ids)."""
    return itertools.product(pool, repeat=count)


def _universal_delta_assignments(
    count: int, pool: list, delta_pool: list, old_pool: list
) -> Iterator[tuple]:
    """The ``count``-tuples over ``pool`` that use at least one delta value.

    Each qualifying tuple is produced exactly once: split on the first
    position carrying a delta value (earlier positions range over old
    values only, later ones over the whole pool), so the cost follows
    the delta's size rather than ``|pool|^count``.
    """
    for first in range(count):
        pools = [old_pool] * first + [delta_pool] + [pool] * (count - first - 1)
        yield from itertools.product(*pools)


def universal_matches(
    count: int,
    matches: Iterable,
    all_matches,
    pool: list,
    split: "tuple[list, list] | None",
) -> Iterator[tuple]:
    """Pair body matches with universal assignments, ``(match, values)``.

    The one enumeration every engine shares (object, columnar and store
    chase), so they pair the same matches with the same values: each of
    this round's body ``matches`` (all of them under full evaluation,
    the delta-touching ones otherwise) times every assignment over the
    round's ``pool``; then, when ``split = (delta_pool, old_pool)`` holds
    the terms that just entered the domain, every match of
    ``all_matches()`` times the assignments using at least one of them.
    Matches may be shared mutable bindings: each is consumed before the
    next is drawn.
    """
    assignments = None
    for match in matches:
        if assignments is None:
            assignments = list(_universal_assignments(count, pool))
        for values in assignments:
            yield match, values
    if split is None:
        return
    delta_assignments = None
    for match in all_matches():
        if delta_assignments is None:
            delta_assignments = list(
                _universal_delta_assignments(count, pool, *split)
            )
        for values in delta_assignments:
            yield match, values


def _round_matches(
    prepared: _PreparedRule,
    current: Instance,
    delta: Instance | None,
    delta_terms: set[Term] | None,
    telemetry: Telemetry | None = None,
    domain_pool: list[Term] | None = None,
) -> Iterator[dict[Variable, Term]]:
    """All ``sigma`` to apply this round, semi-naive when a delta is given.

    ``domain_pool`` is the round's active domain as a list, hoisted by
    the round loop so rules with universal head variables do not rebuild
    it per rule (or, worse, per body match).
    """
    rule = prepared.skolemized.rule
    plan = prepared.plan
    universal = plan.universal
    if delta is not None and not plan.relevant(
        delta.predicates_with_facts(), delta_terms
    ):
        # Relevance pruning: no body predicate in the delta and no new
        # domain term a universal variable could grab — provably no
        # semi-naive match this round.
        if telemetry is not None:
            telemetry.counters["plan.rules_skipped"] += 1
            telemetry.counters["plan.nodes_saved"] += plan.search_count
        return

    def search(restrict: Instance | None = None) -> Iterator[dict]:
        return iter_pattern_homomorphisms(
            prepared.body_patterns,
            current,
            delta=restrict,
            telemetry=telemetry,
            plan=plan.join,
        )

    if delta is None:
        matches: Iterable[dict] = search()  # full evaluation (the first round)
    elif rule.body:
        matches = search(delta)  # semi-naive: bodies touching the delta
    else:
        matches = ()
    if not universal:
        yield from matches
        return
    if domain_pool is None:
        domain_pool = list(current.domain())
    split = None
    if delta is not None and delta_terms:
        split = (
            [term for term in domain_pool if term in delta_terms],
            [term for term in domain_pool if term not in delta_terms],
        )
    for match, values in universal_matches(
        len(universal),
        matches,
        search if rule.body else lambda: ({},),
        domain_pool,
        split,
    ):
        yield {**match, **dict(zip(universal, values))}


@dataclass
class RoundOutcome:
    """What one round's trigger matching produced, executor-agnostic.

    ``produced`` maps each genuinely new atom to its recorded derivation
    (first producer in the executor's deterministic enumeration order);
    ``matches`` counts every sigma applied, ``dedup_hits`` every head
    atom that was already present.
    """

    produced: dict[Atom, Derivation]
    matches: int
    dedup_hits: int


class SequentialRoundExecutor:
    """The object-engine round executor.

    One round = one pass over the prepared rules, enumerating this
    round's matches via :func:`_round_matches` and deduplicating head
    atoms against the current instance and the round's own production.
    :class:`repro.chase.columnar_kernel.ColumnarRoundExecutor` implements
    the same ``run_round`` contract over interned term ids.

    ``control`` (a :class:`_RunControl`, set by :func:`_run_rounds`) is
    consulted at every rule boundary and every
    ``planner.CONTROL_CHECK_STRIDE`` matches; a hit raises
    :class:`_RoundInterrupt`, abandoning the round before any of its
    production is applied.
    """

    control: "_RunControl | None" = None

    def __init__(
        self, prepared: tuple[_PreparedRule, ...], telemetry: Telemetry
    ) -> None:
        self.prepared = prepared
        self.telemetry = telemetry

    def run_round(
        self,
        current: Instance,
        sync: Iterable[Atom],
        delta: Instance | None,
        delta_terms: set[Term] | None,
        domain_pool: list[Term] | None,
    ) -> RoundOutcome:
        from .planner import CONTROL_CHECK_STRIDE

        produced: dict[Atom, Derivation] = {}
        matches = 0
        dedup_hits = 0
        control = self.control
        stride = CONTROL_CHECK_STRIDE - 1
        for rule in self.prepared:
            if control is not None:
                reason = control.interruption()
                if reason is not None:
                    raise _RoundInterrupt(reason)
            skolem_head = rule.skolemized.head
            for sigma in _round_matches(
                rule, current, delta, delta_terms, self.telemetry, domain_pool
            ):
                matches += 1
                if control is not None and not (matches & stride):
                    reason = control.interruption()
                    if reason is not None:
                        raise _RoundInterrupt(reason)
                for new_atom in (item.substitute(sigma) for item in skolem_head):
                    if new_atom in current or new_atom in produced:
                        dedup_hits += 1
                        continue
                    produced[new_atom] = Derivation(
                        rule.skolemized.rule,
                        tuple(sorted(sigma.items(), key=lambda kv: kv[0].name)),
                    )
        return RoundOutcome(produced=produced, matches=matches, dedup_hits=dedup_hits)

    def close(self) -> None:
        """Nothing to release for the in-process executor."""


def _run_rounds(
    prepared: tuple[_PreparedRule, ...],
    current: Instance,
    round_added: list[frozenset[Atom]],
    derivations: dict[Atom, Derivation],
    rounds: int,
    budget: ChaseBudget,
    track_provenance: bool,
    semi_naive: bool,
    delta: Instance | None,
    delta_terms: set[Term] | None,
    telemetry: Telemetry,
    executor,
    control: "_RunControl | None" = None,
) -> bool:
    """The round loop shared by :func:`chase` and :func:`resume`.

    Mutates ``current``, ``round_added`` and ``derivations`` in place and
    returns whether a fixpoint was reached.  One telemetry record is
    appended per executed round — including the final empty round that
    confirms the fixpoint, whose matching work is real.

    ``executor`` pluggably owns the per-round trigger matching
    (:class:`SequentialRoundExecutor` or the columnar kernel's
    ``ColumnarRoundExecutor``); the loop itself stays the
    single owner of budget checks, the semi-naive delta hand-off and the
    per-round telemetry records, so every executor produces identical
    rounds by construction.

    ``control`` carries the run's deadline/cancellation state.  The loop
    checks it before each round; executors check it inside the round and
    raise :class:`_RoundInterrupt` to abandon one mid-flight.  Either
    way the partial round is *not* applied — ``current``/``round_added``
    stay an exact chase prefix — a partial round record is appended with
    ``aborted=True``, the matching ``chase.cancelled`` /
    ``chase.deadline_hit`` counter is set and the overrun follows
    ``budget.on_exceeded``.
    """
    terminated = False
    counters = telemetry.counters
    executor.control = control
    any_universal = any(rule.plan.universal for rule in prepared)
    # A seed delta was applied to ``current`` by the caller: hand it to
    # the executor as the first round's sync, like any applied round.
    sync: Iterable[Atom] = delta if delta is not None else ()
    interrupted: str | None = None
    for _ in range(rounds):
        round_number = len(round_added)
        round_started = time.perf_counter()
        if control is not None:
            interrupted = control.interruption()
            if interrupted is not None:
                break
        round_delta = delta if semi_naive else None
        round_delta_terms = delta_terms if semi_naive else None
        domain_pool = list(current.domain()) if any_universal else None
        try:
            outcome = executor.run_round(
                current, sync, round_delta, round_delta_terms, domain_pool
            )
        except _RoundInterrupt as stop:
            interrupted = stop.reason
            telemetry.record_round(
                round=round_number,
                aborted=True,
                total_atoms=len(current),
                seconds=round(time.perf_counter() - round_started, 6),
            )
            break
        produced = outcome.produced
        matches = outcome.matches
        dedup_hits = outcome.dedup_hits
        counters["chase.rounds"] += 1
        counters["chase.matches"] += matches
        counters["chase.atoms_produced"] += len(produced)
        counters["chase.dedup_hits"] += dedup_hits
        if not produced:
            terminated = True
            telemetry.record_round(
                round=round_number,
                matches=matches,
                atoms_produced=0,
                dedup_hits=dedup_hits,
                new_terms=0,
                total_atoms=len(current),
                seconds=round(time.perf_counter() - round_started, 6),
            )
            break
        old_domain = current.domain()
        for new_atom in produced:
            current.add(new_atom)
        if track_provenance:
            derivations.update(produced)
        round_added.append(frozenset(produced))
        delta = Instance(produced)
        delta_terms = current.domain() - old_domain
        sync = produced
        telemetry.record_round(
            round=round_number,
            matches=matches,
            atoms_produced=len(produced),
            dedup_hits=dedup_hits,
            new_terms=len(delta_terms),
            total_atoms=len(current),
            seconds=round(time.perf_counter() - round_started, 6),
        )
        if len(current) > budget.max_atoms:
            if budget.on_exceeded == "raise":
                raise ChaseBudgetExceeded(
                    f"chase exceeded {budget.max_atoms} atoms after "
                    f"{len(round_added) - 1} rounds"
                )
            break
    if interrupted is not None:
        note_interruption(telemetry, interrupted, budget, len(round_added) - 1)
    return terminated


def note_interruption(
    telemetry: Telemetry, reason: str, budget: ChaseBudget, rounds_done: int
) -> None:
    """Record a deadline/cancellation stop and apply ``on_exceeded``.

    Shared with the store-backed chase
    (:mod:`repro.storage.chasestore`), so every engine reports
    interruptions through the same counters and exception types.
    """
    if reason == "cancelled":
        telemetry.counters["chase.cancelled"] += 1
        if budget.on_exceeded == "raise":
            raise ChaseCancelled(
                f"chase cancelled after {rounds_done} complete rounds"
            )
    else:
        telemetry.counters["chase.deadline_hit"] += 1
        if budget.on_exceeded == "raise":
            raise ChaseBudgetExceeded(
                f"chase deadline of {budget.deadline_s}s expired after "
                f"{rounds_done} complete rounds"
            )


# The round executor the in-memory chase uses when none is asked for by
# name: the columnar kernel (see :mod:`repro.chase.columnar_kernel`).
DEFAULT_CHASE_BACKEND = "columnar"


def _resolve_chase_backend(backend: "str | None") -> str:
    from ..storage.base import resolve_backend

    return resolve_backend(
        backend,
        default=DEFAULT_CHASE_BACKEND,
        allowed=("memory", "columnar"),
        hint=(
            "a SQLite-backed chase runs through "
            "repro.storage.chase_into_store or the CLI's --backend sqlite"
        ),
    ).name


def _make_executor(
    backend_name: str,
    prepared: tuple[_PreparedRule, ...],
    current: Instance,
    telemetry: Telemetry,
):
    """The round executor for a resolved backend name, over ``current``."""
    if backend_name == "columnar":
        from .columnar_kernel import make_columnar_executor

        return make_columnar_executor(prepared, current, telemetry)
    return SequentialRoundExecutor(prepared, telemetry)


def chase(
    theory: Theory,
    base: Instance,
    budget: ChaseBudget | None = None,
    track_provenance: bool = True,
    semi_naive: bool = True,
    telemetry: Telemetry | None = None,
    backend: str | None = None,
    cancel: CancellationToken | None = None,
) -> ChaseResult:
    """Run the semi-oblivious Skolem chase.

    Resource limits live in the frozen :class:`ChaseBudget`: the chase
    stops early at a fixpoint (then ``terminated`` is ``True``), and when
    the budget is exceeded the partial result is returned with
    ``terminated = False`` (or :class:`ChaseBudgetExceeded` is raised
    under ``ChaseBudget(on_exceeded='raise')``).

    ``backend`` picks the round kernel through the unified
    :func:`repro.storage.resolve_backend` spec: ``"columnar"`` (the
    default) runs every rule as hash joins over interned term ids
    (:mod:`repro.chase.columnar_kernel`), ``"memory"`` forces the plain
    object engine — the readable reference of Definition 6.  Both
    produce identical rounds, atoms and ``chase.*`` counters; the
    columnar kernel additionally reports ``columnar.*``.
    The ``"sqlite"`` backend is rejected here — the store-backed chase
    has its own entry point (:func:`repro.storage.chase_into_store`).

    ``cancel`` accepts a :class:`CancellationToken`; together with
    ``budget.deadline_s`` it bounds the run by events rather than work:
    a triggered token or expired deadline stops the chase at a clean
    round boundary (abandoning any round in flight unapplied), follows
    ``on_exceeded`` (raising :class:`ChaseCancelled` /
    :class:`ChaseBudgetExceeded` under ``'raise'``) and leaves a prefix
    :func:`resume` continues to the identical fixpoint.

    ``semi_naive=False`` re-evaluates every rule against the whole current
    instance each round (ablation A1) — same result atom-for-atom thanks
    to Skolem determinism, strictly more matching work.

    ``telemetry`` lets callers supply a hook-carrying collector; by default
    a fresh one is created and returned as ``ChaseResult.stats``.
    """
    budget = budget if budget is not None else ChaseBudget()
    backend_name = _resolve_chase_backend(backend)
    telemetry = telemetry if telemetry is not None else Telemetry()
    prepared = _prepare_rules(theory)
    current = base.copy()
    round_added: list[frozenset[Atom]] = [frozenset(base)]
    derivations: dict[Atom, Derivation] = {}
    executor = _make_executor(backend_name, prepared, current, telemetry)
    try:
        with telemetry.timer("chase"):
            terminated = _run_rounds(
                prepared,
                current,
                round_added,
                derivations,
                rounds=budget.max_rounds,
                budget=budget,
                track_provenance=track_provenance,
                semi_naive=semi_naive,
                delta=None,
                delta_terms=None,
                telemetry=telemetry,
                executor=executor,
                control=_RunControl.start(budget, cancel),
            )
    finally:
        executor.close()

    return ChaseResult(
        theory=theory,
        base=base.copy(),
        instance=current,
        round_added=round_added,
        terminated=terminated,
        derivations=derivations,
        stats=telemetry,
    )


def resume(
    result: ChaseResult,
    extra_rounds: int,
    budget: ChaseBudget | None = None,
    backend: str | None = None,
    cancel: CancellationToken | None = None,
) -> ChaseResult:
    """Continue a chase for more rounds, reusing the computed prefix.

    By Observation 8 (and the determinism of Skolem naming) continuing from
    ``Ch_i`` produces exactly the rounds ``Ch_{i+1}, ...`` of the original
    chase; the engine re-seeds its semi-naive delta from the last recorded
    round.  The returned ``stats`` continue the original run's: counters
    and round records accumulate as if the chase had run in one go
    (``budget.max_rounds`` is ignored here — ``extra_rounds`` rules).
    ``backend`` selects the round kernel exactly as in :func:`chase`;
    ``cancel`` and ``budget.deadline_s`` bound the continuation the same
    way they bound a fresh run.
    """
    budget = budget if budget is not None else ChaseBudget()
    backend_name = _resolve_chase_backend(backend)
    if result.terminated or extra_rounds <= 0:
        return result
    prepared = _prepare_rules(result.theory)
    current = result.instance.copy()
    round_added = list(result.round_added)
    derivations = dict(result.derivations)
    telemetry = result.stats.fork()
    if len(round_added) > 1:
        delta = Instance(round_added[-1])
        # Only the term set of the pre-delta prefix matters here; walking
        # the atoms directly avoids rebuilding a fully indexed Instance.
        previous_terms: set[Term] = set()
        for added in round_added[:-1]:
            for item in added:
                previous_terms.update(item.args)
        delta_terms = current.domain() - previous_terms
    else:
        delta = None
        delta_terms = None

    executor = _make_executor(backend_name, prepared, current, telemetry)
    try:
        with telemetry.timer("chase"):
            terminated = _run_rounds(
                prepared,
                current,
                round_added,
                derivations,
                rounds=extra_rounds,
                budget=budget,
                track_provenance=True,
                semi_naive=True,
                delta=delta,
                delta_terms=delta_terms,
                telemetry=telemetry,
                executor=executor,
                control=_RunControl.start(budget, cancel),
            )
    finally:
        executor.close()

    return ChaseResult(
        theory=result.theory,
        base=result.base,
        instance=current,
        round_added=round_added,
        terminated=terminated,
        derivations=derivations,
        stats=telemetry,
    )


def chase_to_fixpoint(
    theory: Theory, base: Instance, budget: ChaseBudget | None = None
) -> ChaseResult:
    """Chase until a fixpoint, raising when budgets are exceeded.

    Use only for theories known (or expected) to have a terminating Skolem
    chase on ``base``; the error keeps non-terminating cases loud.  Limits
    come from ``budget`` (a :class:`ChaseBudget`; ``on_exceeded`` is
    forced to ``"raise"`` here).
    """
    if budget is None:
        budget = ChaseBudget(max_rounds=200, max_atoms=500_000)
    budget = replace(budget, on_exceeded="raise")
    result = chase(theory, base, budget=budget)
    if not result.terminated:
        raise ChaseBudgetExceeded(
            f"no fixpoint within {budget.max_rounds} rounds on {len(base)} facts"
        )
    return result
