"""Seeded differential test of the UCQ evaluators, plus their work counts.

Every evaluator projects answers instead of enumerating homomorphisms
(``project_answers``, the columnar ``_project_rows``, the SQL
``SELECT DISTINCT`` union).  The reference here does the opposite on
purpose: it enumerates every homomorphism with
:func:`~repro.logic.homomorphism.iter_query_homomorphisms` and projects
afterwards.  On every generated case, ``evaluate`` (per disjunct),
``evaluate_ucq``, ``evaluate_ucq_columnar`` and ``evaluate_ucq_sql`` must
equal it.

The generator mixes the shapes a projection shortcut gets wrong: a
variable repeated inside one atom (``E(x, x)``), a repeated answer
variable (``q(x, x)``), constants (some never stored), boolean queries
that hold and that fail, disconnected bodies, atoms over existential
variables only, Skolem terms in the instance and in queries, nullary
atoms and predicates without facts.  ``test_generator_covers_every_shape``
keeps it that way.

The work-count tests pin the projection cut itself: a boolean query
stops at its first witness, and an answer with thousands of witnesses is
found once, not once per witness.
"""

from __future__ import annotations

import random

import pytest

import repro.chase.columnar_kernel as columnar_kernel
import repro.logic.homomorphism as homomorphism
from repro.chase.columnar_kernel import evaluate_ucq_columnar
from repro.logic.atoms import Atom
from repro.logic.containment import evaluate_ucq
from repro.logic.homomorphism import evaluate, iter_query_homomorphisms
from repro.logic.instance import Instance
from repro.logic.query import ConjunctiveQuery, UnionOfCQs
from repro.logic.signature import Predicate
from repro.logic.terms import Constant, FunctionTerm, Variable
from repro.storage import SQLiteStore, evaluate_ucq_sql
from repro.storage.columnar import ColumnarStore

P = Predicate("P", 1)
Q = Predicate("Q", 1)
E = Predicate("E", 2)
F = Predicate("F", 2)
R = Predicate("R", 3)
NULLARY = Predicate("Z", 0)
EMPTY = Predicate("Never", 2)  # queried, never stored
PREDICATES = (P, Q, E, F, R, NULLARY, EMPTY)

STORED = tuple(Constant(f"c{i}") for i in range(4))
ABSENT = Constant("nowhere")
SKOLEM = FunctionTerm("f", (STORED[0],))
DEEP_SKOLEM = FunctionTerm("g", (SKOLEM, STORED[1]))
VARIABLES = tuple(Variable(name) for name in ("x", "y", "z", "w"))
X, Y, Z = VARIABLES[:3]

CASES = 120


def reference(ucq: UnionOfCQs, instance: Instance) -> set[tuple]:
    """Enumerate every homomorphism, then project: the slow, plain route."""
    answers: set[tuple] = set()
    for cq in ucq:
        for hom in iter_query_homomorphisms(cq.atoms, instance):
            answers.add(tuple(hom[var] for var in cq.answer_vars))
    return answers


def random_instance(rng: random.Random) -> Instance:
    domain = STORED + (SKOLEM, DEEP_SKOLEM)
    instance = Instance()
    stored = (P, Q, E, F, R)
    for _ in range(rng.randint(0, 20)):
        predicate = rng.choice(stored)
        instance.add(
            Atom(predicate, tuple(rng.choice(domain) for _ in range(predicate.arity)))
        )
    if rng.random() < 0.5:
        instance.add(Atom(NULLARY, ()))
    return instance


def random_term(rng: random.Random):
    roll = rng.random()
    if roll < 0.72:
        return rng.choice(VARIABLES)
    if roll < 0.87:
        return rng.choice(STORED)
    if roll < 0.94:
        return ABSENT
    return rng.choice((SKOLEM, DEEP_SKOLEM))


def random_cq(rng: random.Random, arity: int) -> ConjunctiveQuery:
    atoms = []
    for _ in range(rng.randint(1, 3)):
        predicate = rng.choice(PREDICATES)
        atoms.append(
            Atom(predicate, tuple(random_term(rng) for _ in range(predicate.arity)))
        )
    body_vars = sorted(
        {term for item in atoms for term in item.args if isinstance(term, Variable)},
        key=lambda var: var.name,
    )
    if arity and not body_vars:
        atoms.append(Atom(E, (VARIABLES[0], rng.choice(VARIABLES))))
        body_vars = sorted(
            {t for item in atoms for t in item.args if isinstance(t, Variable)},
            key=lambda var: var.name,
        )
    answer = tuple(rng.choice(body_vars) for _ in range(arity))
    return ConjunctiveQuery(answer, tuple(atoms))


def random_ucq(rng: random.Random) -> UnionOfCQs:
    arity = rng.choice((0, 0, 1, 1, 2, 2))
    return UnionOfCQs([random_cq(rng, arity) for _ in range(rng.randint(1, 3))])


def case(seed: int) -> tuple[UnionOfCQs, Instance]:
    rng = random.Random(f"evaluation:{seed}")
    return random_ucq(rng), random_instance(rng)


def features(ucq: UnionOfCQs, instance: Instance) -> set[str]:
    """The shapes one generated case exercises."""
    found: set[str] = set()
    if any(isinstance(t, FunctionTerm) for item in instance for t in item.args):
        found.add("skolem in instance")
    if not instance.with_predicate(EMPTY):
        found.add("empty predicate")
    answers = reference(ucq, instance)
    for cq in ucq:
        variables = cq.variables()
        if cq.is_boolean():
            found.add("boolean holds" if answers else "boolean fails")
        if len(set(cq.answer_vars)) < len(cq.answer_vars):
            found.add("repeated answer variable")
        if EMPTY in cq.predicates():
            found.add("empty predicate queried")
        if not cq.is_connected():
            found.add("disconnected body")
        for item in cq.atoms:
            args = [t for t in item.args if isinstance(t, Variable)]
            if len(set(args)) < len(args):
                found.add("variable repeated in one atom")
            if args and not set(args) & set(cq.answer_vars) and cq.answer_vars:
                found.add("existential-only atom")
            for term in item.args:
                if term == ABSENT:
                    found.add("absent constant")
                elif isinstance(term, Constant):
                    found.add("stored constant")
                elif isinstance(term, FunctionTerm):
                    found.add("skolem in query")
        if len(cq.atoms) == 1 and len(set(cq.atoms[0].args)) == len(
            cq.atoms[0].args
        ) and set(cq.atoms[0].args) <= variables:
            found.add("single-atom projection")
    return found


def test_generator_covers_every_shape():
    seen: set[str] = set()
    for seed in range(CASES):
        seen |= features(*case(seed))
    assert seen >= {
        "variable repeated in one atom",
        "repeated answer variable",
        "stored constant",
        "absent constant",
        "boolean holds",
        "boolean fails",
        "disconnected body",
        "existential-only atom",
        "skolem in instance",
        "skolem in query",
        "empty predicate",
        "empty predicate queried",
        "single-atom projection",
    }


@pytest.mark.parametrize("seed", range(CASES))
def test_evaluators_equal_the_enumerating_reference(seed):
    ucq, instance = case(seed)
    expected = reference(ucq, instance)
    for cq in ucq:
        assert evaluate(cq, instance) == reference(UnionOfCQs([cq]), instance), cq
    assert evaluate_ucq(ucq, instance) == expected
    assert evaluate_ucq_columnar(ucq, ColumnarStore(instance)) == expected
    store = SQLiteStore(":memory:")
    try:
        store.add_many(instance)
        assert evaluate_ucq_sql(ucq, store) == expected
    finally:
        store.close()


@pytest.mark.parametrize(
    "answer, atoms",
    [
        # A variable repeated inside one atom, and a repeated answer variable.
        ((X,), (Atom(E, (X, X)),)),
        ((X, X), (Atom(E, (X, Y)),)),
        ((X, X), (Atom(E, (X, X)),)),
        ((), (Atom(E, (X, X)),)),
        ((Y,), (Atom(E, (X, X)), Atom(P, (Y,)))),
        # One-atom projections that pick, reorder or repeat positions.
        ((Y,), (Atom(E, (X, Y)),)),
        ((Y, X), (Atom(E, (X, Y)),)),
        ((Y, Y), (Atom(E, (X, Y)),)),
        ((Z, X), (Atom(R, (X, Y, Z)),)),
        # Several answers, each needing its own witness past the cut.
        ((X,), (Atom(P, (X,)), Atom(E, (X, Y)))),
        ((X,), (Atom(P, (X,)), Atom(E, (X, Y)), Atom(E, (Y, Z)))),
    ],
)
def test_pinned_shapes(answer, atoms):
    """Shapes where a projection shortcut must not stand in for the
    plain answer: ``E(x, x)`` is not ``E(x, y)``, ``q(x, x)`` is not
    ``q(x, y)``, and a witness found for one answer is no witness for
    the next."""
    a, b, c = STORED[:3]
    instance = Instance(
        [
            Atom(E, (a, a)),
            Atom(E, (a, b)),
            Atom(E, (b, c)),
            Atom(E, (c, b)),
            Atom(P, (b,)),
            Atom(P, (c,)),
            Atom(R, (a, b, c)),
            Atom(R, (c, c, a)),
        ]
    )
    ucq = UnionOfCQs([ConjunctiveQuery(answer, atoms)])
    expected = reference(ucq, instance)
    assert evaluate_ucq(ucq, instance) == expected
    assert evaluate_ucq_columnar(ucq, ColumnarStore(instance)) == expected
    store = SQLiteStore(":memory:")
    try:
        store.add_many(instance)
        assert evaluate_ucq_sql(ucq, store) == expected
    finally:
        store.close()


# ----------------------------------------------------------------------
# Work counts: the projection cut
# ----------------------------------------------------------------------
HUB = Constant("hub")
A = Predicate("A", 1)
FANOUT, DEPTH = 100, 30  # 3,000 witnesses behind one answer


def witness_heavy_instance() -> Instance:
    """``A(hub)``, ``E(hub, m_i)`` and ``F(m_i, l_ij)``: the one answer
    ``hub`` of ``q(x) := A(x), E(x, y), F(y, z)`` has 3,000 witnesses."""
    instance = Instance([Atom(A, (HUB,))])
    for i in range(FANOUT):
        middle = Constant(f"m{i}")
        instance.add(Atom(E, (HUB, middle)))
        for j in range(DEPTH):
            instance.add(Atom(F, (middle, Constant(f"l{i}_{j}"))))
    return instance


def _counting(monkeypatch, module, name: str) -> list[int]:
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _chain(answer: tuple) -> ConjunctiveQuery:
    return ConjunctiveQuery(answer, (Atom(A, (X,)), Atom(E, (X, Y)), Atom(F, (Y, Z))))


@pytest.mark.parametrize("answer", [(), (X,)])
def test_memory_cut_does_not_expand_witnesses(monkeypatch, answer):
    instance = witness_heavy_instance()
    query = _chain(answer)
    matches = _counting(monkeypatch, homomorphism, "_match")
    assert evaluate(query, instance) == ({(HUB,)} if answer else {()})
    # One match per atom: A(hub), then the first E and F facts.  The
    # enumerating search matched 1 + 100 + 3,000 facts.
    assert matches[0] == 3


def test_memory_boolean_ucq_stops_at_first_witness(monkeypatch):
    instance = witness_heavy_instance()
    ucq = UnionOfCQs([_chain(()), _chain(())])
    matches = _counting(monkeypatch, homomorphism, "_match")
    assert evaluate_ucq(ucq, instance) == {()}
    assert matches[0] == 3  # the second disjunct is cut before its search


@pytest.mark.parametrize("answer", [(), (X,)])
def test_columnar_cut_does_not_expand_witnesses(monkeypatch, answer):
    store = ColumnarStore(witness_heavy_instance())
    joins = [0]
    original = columnar_kernel._join

    def counted(*args, **kwargs):
        for binding in original(*args, **kwargs):
            joins[0] += 1
            yield binding

    monkeypatch.setattr(columnar_kernel, "_join", counted)
    query = UnionOfCQs([_chain(answer), _chain(answer)])
    assert evaluate_ucq_columnar(query, store) == ({(HUB,)} if answer else {()})
    # The first disjunct: one prefix binding and one witness probe; the
    # second disjunct's prefix row is already an answer (or, boolean,
    # the union already holds).  Enumerating yields 3,000 per disjunct.
    assert joins[0] <= 3


def test_sql_rows_scanned_counts_distinct_answer_rows():
    instance = witness_heavy_instance()
    store = SQLiteStore(":memory:")
    try:
        store.add_many(instance)
        counters = store.stats.counters
        for ucq, scanned in [
            # One scanned row per distinct UNION row, that is per answer.
            (UnionOfCQs([ConjunctiveQuery((Y,), (Atom(E, (X, Y)),))]), FANOUT),
            (UnionOfCQs([_chain((X,)), _chain((X,))]), 1),
            (UnionOfCQs([ConjunctiveQuery((Z,), (Atom(F, (Y, Z)),))]), FANOUT * DEPTH),
            (UnionOfCQs([_chain(())]), 1),  # boolean: the one probe row
        ]:
            before = counters["store.rows_scanned"]
            answers = evaluate_ucq_sql(ucq, store)
            assert counters["store.rows_scanned"] - before == scanned
            assert len(answers) == scanned
    finally:
        store.close()
