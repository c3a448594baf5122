"""Incremental maintenance of a chased fixpoint (delta adds, DRed deletes).

A terminated :class:`~repro.chase.engine.ChaseResult` is a fixpoint
``Ch(T, D)`` of the semi-oblivious Skolem chase.  This module maintains
that fixpoint under base-instance updates without re-chasing, doing work
proportional to the change rather than to the fixpoint:

* **Additions** are a resumed semi-naive round.  By Observation 8 the
  materialized instance is an exact chase prefix, and Skolem naming is
  deterministic, so seeding the existing round loop
  (:func:`repro.chase.engine._run_rounds`) with the newly added facts as
  the delta derives exactly the atoms of ``Ch(T, D + A)`` that are
  missing — every already-present consequence is re-found by dedup, not
  re-invented.
* **Deletions** follow DRed (delete-and-rederive) over the recorded
  rule provenance.  The retracted base facts and every atom whose
  recorded derivation (transitively) consumed one of them — the
  *deletion cone* — are over-deleted.  Then each cone atom is probed:
  it is matched against every skolemized head of its predicate, each
  match binds that rule's frontier, and the rule body is searched with
  that binding for a homomorphism into the survivors.  The atoms a probe
  finds come back as one new round with their new derivations, and
  together with the genuinely new added facts they seed the semi-naive
  delta, which recovers everything else.  The result is ``Ch(T, D')``
  atom-for-atom, though the per-round structure (``round_added``) of
  the maintained result generally differs from a from-scratch chase's.

Why that is exact.  *Sound:* recorded parents are strictly shallower
than their children, so by induction on derivation depth every survivor
is derivable from the surviving base; a probe hit's body lies in the
survivors plus the new base, so it is derivable too, and its round comes
after every round its parents sit in, which keeps the invariant.
*Complete:* semi-naive evaluation from a seed delta misses nothing as
long as every rule match whose body lies entirely outside the delta —
here, in the survivors — already has its head present.  Such a head was
in the old fixpoint; if the cone took it, its probe finds that very
match (the head fixes the frontier, and the body is searched with the
frontier bound), so it is in the seed.  With no seed at all the
survivors are already the fixpoint and no round runs.

The maintained result carries what the next update needs in a private
slot: the parent → children provenance index (built once by
:func:`~repro.chase.provenance.dependents_index`, then patched: edges of
deleted and promoted atoms out, edges of new derivations in) and, on
``backend="columnar"``, the kernel's :class:`~repro.storage.columnar.
ColumnarStore` mirror (over-deleted rows removed, new rows synced by
the round loop).  An update takes the slot from its input with one
atomic ``__dict__.pop``, so the state has exactly one owner and the
input's instance, derivations and rounds never change; updating an
older result again rebuilds both lazily.  :func:`repro.chase.chase`
never sets the slot.

Retraction is refused (``ValueError``) for theories with universal head
variables (the ``true -> exists z. R(x, z)`` rules of ``T_d``): such
rules derive atoms with *empty* recorded bodies, so the provenance cone
cannot see that a derived atom depended on a retracted term's presence
in the domain.  Additions remain fully supported for those theories —
the delta-terms machinery of the round loop handles new domain elements
exactly.

The store-backed analogue is :func:`update_store_chase`, which walks
the ``repro_supports`` table persisted by
:func:`repro.storage.chase_into_store` instead of in-memory derivations,
and still re-derives with one full-width round over the survivors.

Counters (``delta.*``, see ``docs/incremental.md``): ``delta.updates``,
``delta.noops``, ``delta.added_base``, ``delta.retracted_base``,
``delta.overdeleted``, ``delta.rederived``, ``delta.rederive_probes``,
``delta.rounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TYPE_CHECKING

from .chase.columnar_kernel import ColumnarRoundExecutor
from .chase.engine import (
    CancellationToken,
    ChaseBudget,
    ChaseResult,
    Derivation,
    _make_executor,
    _prepare_rules,
    _PreparedRule,
    _resolve_chase_backend,
    _RunControl,
    _run_rounds,
)
from .chase.provenance import (
    _match_ground,
    deletion_cone,
    dependents_index,
    link_derivation,
    unlink_derivation,
)
from .logic.atoms import Atom
from .logic.homomorphism import iter_pattern_homomorphisms
from .logic.instance import Instance
from .telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .storage.chasestore import StoreChaseResult
    from .storage.columnar import ColumnarStore
    from .storage.sqlite import SQLiteStore

__all__ = [
    "UpdateOutcome",
    "incremental_update",
    "update_store_chase",
    "deletion_cone",
    "dependents_index",
]


@dataclass(frozen=True)
class UpdateOutcome:
    """What one :func:`incremental_update` call did.

    ``result`` is the maintained fixpoint (a fresh :class:`ChaseResult`
    whose ``stats`` continue the input run's, as :func:`resume` does);
    ``stats`` is the *maintenance-only* telemetry — the work of this
    update alone — which sessions merge into their aggregate without
    double-counting the original chase.
    """

    result: ChaseResult
    added: frozenset[Atom]
    retracted: frozenset[Atom]
    overdeleted: int
    rederived: int
    rounds_run: int
    stats: Telemetry

    @property
    def changed(self) -> bool:
        return bool(self.added or self.retracted)


@dataclass
class _Maintenance:
    """What a maintained fixpoint hands the next update (one owner).

    ``dependents`` is exactly ``dependents_index(result.derivations)``;
    ``mirror``, when set, is a columnar store holding exactly
    ``result.instance``.
    """

    dependents: dict[Atom, set[Atom]]
    mirror: "ColumnarStore | None"


def _rederive(
    prepared: tuple[_PreparedRule, ...],
    cone: Iterable[Atom],
    survivors: Instance,
    telemetry: Telemetry,
) -> dict[Atom, Derivation]:
    """The cone atoms with a derivation whose body lies in ``survivors``.

    One head-bound probe per (atom, rule head it matches): the head
    binds the rule's frontier, then the body is searched with that
    binding (``hom.*`` counts the search).  The first match found is
    recorded as the atom's derivation.
    """
    heads: dict = {}
    for rule in prepared:
        for head in rule.skolemized.head:
            heads.setdefault(head.predicate, []).append((head, rule))
    counters = telemetry.counters
    found: dict[Atom, Derivation] = {}
    for item in cone:
        for head, rule in heads.get(item.predicate, ()):
            binding = _match_ground(head, item, {})
            if binding is None:
                continue
            counters["delta.rederive_probes"] += 1
            for sigma in iter_pattern_homomorphisms(
                rule.body_patterns, survivors, binding, telemetry=telemetry
            ):
                found[item] = Derivation(
                    rule.skolemized.rule,
                    tuple(sorted(sigma.items(), key=lambda kv: kv[0].name)),
                )
                break
            if item in found:
                break
    return found


def _check_retraction_supported(theory) -> None:
    """Refuse retraction under universal head variables (both engines)."""
    offenders = [rule for rule in theory if rule.universal_head_variables()]
    if offenders:
        raise ValueError(
            "retract is not supported for theories with universal head "
            "variables (empty-body derivations hide the dependency of "
            f"{len(offenders)} rule(s) on the active domain); re-chase "
            "from scratch instead"
        )


def incremental_update(
    result: ChaseResult,
    add: Iterable[Atom] = (),
    retract: Iterable[Atom] = (),
    budget: ChaseBudget | None = None,
    backend: str | None = None,
    cancel: CancellationToken | None = None,
    telemetry: Telemetry | None = None,
) -> UpdateOutcome:
    """Maintain a terminated chase under base additions and retractions.

    Returns an :class:`UpdateOutcome` whose ``result`` equals (as an atom
    set) a from-scratch ``chase(theory, new_base)`` — the delta-guard
    scenario and the property tests assert digest equality on every
    backend.  ``result.stats`` continues the input run's telemetry;
    ``outcome.stats`` isolates the maintenance work.

    Raises ``ValueError`` when the input run is not terminated (the
    prefix of a truncated run is not a fixpoint to maintain), when a
    fact is both added and retracted, when a retracted fact is a
    *derived* atom rather than a base fact, and when retraction meets a
    theory with universal head variables (see the module docstring).
    Retracting an absent fact or adding a present one is a no-op.
    """
    if not result.terminated:
        raise ValueError(
            "incremental_update requires a terminated chase result; "
            "run the chase to fixpoint (or resume it) first"
        )
    add = frozenset(add)
    retract = frozenset(retract)
    both = add & retract
    if both:
        raise ValueError(f"facts both added and retracted: {sorted(map(str, both))}")
    derived_retracts = [
        item for item in retract if item not in result.base and item in result.instance
    ]
    if derived_retracts:
        raise ValueError(
            "cannot retract derived atoms (retract their base ancestors "
            f"instead): {sorted(map(str, derived_retracts))}"
        )
    if retract and any(item in result.base for item in retract):
        _check_retraction_supported(result.theory)

    budget = budget if budget is not None else ChaseBudget()
    backend_name = _resolve_chase_backend(backend)
    work = telemetry if telemetry is not None else Telemetry()
    counters = work.counters

    new_base = result.base.copy()
    removed = frozenset(item for item in retract if new_base.discard(item))
    added = frozenset(item for item in add if new_base.add(item))
    # Take the carried state: one atomic pop makes this call its only
    # owner, and leaves ``result`` to rebuild lazily if updated again.
    carried: _Maintenance | None = result.__dict__.pop("_maintenance", None)
    if not removed and not added:
        counters["delta.noops"] += 1
        combined = result.stats.fork()
        combined.merge(work)
        same = ChaseResult(
            theory=result.theory,
            base=result.base,
            instance=result.instance,
            round_added=result.round_added,
            terminated=True,
            derivations=result.derivations,
            stats=combined,
        )
        same._maintenance = carried
        return UpdateOutcome(
            result=same,
            added=frozenset(),
            retracted=frozenset(),
            overdeleted=0,
            rederived=0,
            rounds_run=0,
            stats=work,
        )

    counters["delta.updates"] += 1
    counters["delta.added_base"] += len(added)
    counters["delta.retracted_base"] += len(removed)

    with work.timer("delta"):
        current = result.instance.copy()
        old_domain = current.domain()
        derivations = dict(result.derivations)
        dependents = (
            carried.dependents
            if carried is not None
            else dependents_index(derivations)
        )
        mirror = carried.mirror if carried is not None else None
        if mirror is not None and backend_name != "columnar":
            mirror.close()
            mirror = None

        deleted: set[Atom] = set()
        if removed:
            deleted = deletion_cone(removed, dependents, new_base)
            for item in deleted:
                current.discard(item)
                derivation = derivations.pop(item, None)
                if derivation is not None:
                    unlink_derivation(dependents, item, derivation)
                if mirror is not None:
                    mirror.discard(item)
            counters["delta.overdeleted"] += len(deleted) - len(removed)

        # Atoms genuinely new to the instance seed the semi-naive delta;
        # added facts the chase had already derived are *promoted* to
        # base (their consequences are all present, nothing to derive).
        new_to_instance = [item for item in added if current.add(item)]
        for item in added:
            derivation = derivations.pop(item, None)
            if derivation is not None:
                unlink_derivation(dependents, item, derivation)

        # Rebuild the round partition: round 0 is the new base, later
        # rounds keep their surviving members (their true depths), with
        # deleted and promoted atoms stripped out.
        strip = deleted | set(added)
        round_added: list[frozenset[Atom]] = [frozenset(new_base)]
        for previous in result.round_added[1:]:
            round_added.append(previous - strip)
        rounds_before = len(round_added)

        # Cone atoms a probe re-derives from the survivors return as one
        # round, deeper than every parent they were found with.
        prepared = _prepare_rules(result.theory)
        found = _rederive(prepared, deleted, current, work)
        if found:
            for item in found:
                current.add(item)
            derivations.update(found)
            round_added.append(frozenset(found))

        terminated = True
        executed_before = counters["chase.rounds"]
        seed = new_to_instance + list(found)
        if seed:
            if mirror is not None:
                executor = ColumnarRoundExecutor(prepared, mirror, work)
                mirror = None  # owned by the executor until the run ends
            else:
                executor = _make_executor(backend_name, prepared, current, work)
            try:
                terminated = _run_rounds(
                    prepared,
                    current,
                    round_added,
                    derivations,
                    rounds=budget.max_rounds,
                    budget=budget,
                    track_provenance=True,
                    semi_naive=True,
                    delta=Instance(seed),
                    delta_terms=current.domain() - old_domain,
                    telemetry=work,
                    executor=executor,
                    control=_RunControl.start(budget, cancel),
                )
            except BaseException:
                executor.close()
                raise
            if backend_name == "columnar":
                mirror = executor.store
        rounds_run = len(round_added) - rounds_before
        counters["delta.rounds"] += counters["chase.rounds"] - executed_before
        for produced in round_added[rounds_before:]:
            for item in produced:
                link_derivation(dependents, item, derivations[item])

        rederived = sum(1 for item in deleted if item in current)
        counters["delta.rederived"] += rederived

    combined = result.stats.fork()
    combined.merge(work)
    maintained = ChaseResult(
        theory=result.theory,
        base=new_base,
        instance=current,
        round_added=round_added,
        terminated=terminated,
        derivations=derivations,
        stats=combined,
    )
    if terminated:
        maintained._maintenance = _Maintenance(dependents, mirror)
    elif mirror is not None:
        mirror.close()
    return UpdateOutcome(
        result=maintained,
        added=added,
        retracted=removed,
        overdeleted=len(deleted) - len(removed),
        rederived=rederived,
        rounds_run=rounds_run,
        stats=work,
    )


def update_store_chase(
    store: "SQLiteStore",
    theory,
    add: Iterable[Atom] = (),
    retract: Iterable[Atom] = (),
    budget: ChaseBudget | None = None,
    cancel: CancellationToken | None = None,
) -> "StoreChaseResult":
    """Maintain a SQLite store-backed chase fixpoint in place.

    The store must hold a terminated :func:`repro.storage.chase_into_store`
    run of ``theory`` (matching theory text, current schema).  Additions
    are inserted at a fresh round tag and chased semi-naively with the
    store-chase's standard pivot plans; retractions walk the persisted
    ``repro_supports`` edges to over-delete the cone, then re-derive
    survivors with one full-width round before going semi-naive.  Same
    digest as clearing the store and re-chasing the updated base.

    Implemented in :mod:`repro.storage.chasestore` (the storage layer
    owns the SQL); this is the stable import point next to
    :func:`incremental_update`.
    """
    from .storage.chasestore import update_store_chase as _impl

    return _impl(
        store, theory, add=add, retract=retract, budget=budget, cancel=cancel
    )
