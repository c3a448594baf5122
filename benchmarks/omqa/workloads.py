"""The library workloads: inputs made from a seed, timed operations, checks.

Each ``setup_*`` function builds one workload's inputs from ``seed`` and
returns a :class:`State`.  ``State.op(i)`` prepares operation ``i``
outside the timed interval and returns an :class:`Op`: ``run`` is the
timed call into the program, ``after`` receives its output once the
clock has stopped, folds its telemetry into ``State.counters`` and
checks it (``False`` is a wrong answer).  ``State.counters()`` snapshots
the telemetry the program's public calls returned, which the traced run
turns into per-layer ratios.

The program sees only what is generated here: theories, facts and
queries are written out as text and parsed by ``repro``'s own parser.
Every input is a pure function of the seed and the size arguments, so
two commits run the same operations in the same order.

Timed calls go through module attributes (``repro.parse_query``,
``repro.chase.chase``, ...) rather than names imported here, so the
wrappers a traced run installs on those modules see them.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

STRATEGIES = ("auto", "columnar", "sql")

MEDICAL_RULES = (
    "Patient(x) -> Person(x)",
    "Physician(x) -> Person(x)",
    "Specialist(x) -> Physician(x)",
    "Patient(x) -> exists c. Diagnosed(x, c)",
    "Diagnosed(x, c) -> Condition(c)",
    "Condition(c) -> exists t. TreatedBy(c, t)",
    "TreatedBy(c, t) -> Treatment(t)",
    "Treatment(t) -> exists p. PrescribedBy(t, p)",
    "PrescribedBy(t, p) -> Physician(p)",
    "ChronicCondition(c) -> Condition(c)",
    "ChronicCondition(c) -> exists s. MonitoredBy(c, s)",
    "MonitoredBy(c, s) -> Specialist(s)",
)
GEOGRAPHY_RULES = (
    "City(x) -> Place(x)",
    "Region(x) -> Place(x)",
    "Country(x) -> Place(x)",
    "Capital(x) -> City(x)",
    "City(x) -> exists r. LocatedIn(x, r)",
    "LocatedIn(x, r) -> Region(r)",
    "Region(r) -> exists c. PartOf(r, c)",
    "PartOf(r, c) -> Country(c)",
    "Country(c) -> exists k. HasCapital(c, k)",
    "HasCapital(c, k) -> Capital(k)",
)
STOCK_RULES = (
    "Company(x) -> LegalPerson(x)",
    "Investor(x) -> LegalPerson(x)",
    "ListedCompany(x) -> Company(x)",
    "ListedCompany(x) -> exists s. HasStock(x, s)",
    "HasStock(x, s) -> Stock(s)",
    "Stock(s) -> exists e. TradedOn(s, e)",
    "TradedOn(s, e) -> Exchange(e)",
    "Investor(x) -> exists s. Owns(x, s)",
    "Owns(x, s) -> Stock(s)",
)

MEDICAL_QUERIES = {
    "persons": "q(x) := Person(x)",
    "diagnosed": "q(x) := exists c. Diagnosed(x, c)",
    "treated-by-physician": (
        "q(x) := exists c, t, p. Diagnosed(x, c), TreatedBy(c, t), "
        "PrescribedBy(t, p), Person(p)"
    ),
    "monitored-chronic": "q(c) := exists s. MonitoredBy(c, s), Specialist(s)",
}
GEOGRAPHY_QUERIES = {
    "places": "q(x) := Place(x)",
    "city-country": "q(x) := exists r, c. LocatedIn(x, r), PartOf(r, c), Country(c)",
    "capitals-exist": "q() := exists c, k. HasCapital(c, k), City(k)",
}
STOCK_QUERIES = {
    "legal-persons": "q(x) := LegalPerson(x)",
    "traded-stocks": "q(s) := exists e. TradedOn(s, e), Exchange(e)",
    "investor-exchange": "q(x) := exists s, e. Owns(x, s), TradedOn(s, e)",
}

# Transitive closure, and transitive closure with a Skolem rule on top.
TC_RULES = ("E(x, y) -> T(x, y)", "T(x, y), E(y, z) -> T(x, z)")
TCS_RULES = TC_RULES + (
    "T(x, y) -> exists w. Tag(y, w)",
    "Tag(y, w), E(y, z) -> Seen(z)",
)
# T_d (Definition 45): its chase never terminates, so jobs chase a
# prefix; the (pins) rule has a universal head variable, which the
# columnar kernel hands back to the object engine.
TD_RULES = (
    "true -> exists x. R(x, x), G(x, x)",
    "true -> exists z, z1. R(x, z), G(x, z1)",
    "R(x, x1), G(x, u), G(u, u1) -> exists z. R(u1, z), G(x1, z)",
)


def fact_digest(facts) -> str:
    """sha256 over the sorted fact reprs (the benchmark's own checksum)."""
    rendered = "\n".join(sorted(repr(item) for item in facts))
    return hashlib.sha256(rendered.encode("utf8")).hexdigest()[:16]


def answer_rows(answers) -> list[list[str]]:
    """An answer set as sorted rows of term reprs (the wire form)."""
    return sorted([repr(term) for term in row] for row in answers)


# ----------------------------------------------------------------------
# Input generators
# ----------------------------------------------------------------------
def _some(rng: random.Random, items, share: float) -> list:
    """A seeded choice of ``round(share * len(items))`` of ``items``, in order.

    Counts are fixed and only the choice is seeded, so every seed's
    database has the same shape and costs the same to answer.
    """
    items = list(items)
    chosen = set(rng.sample(range(len(items)), round(share * len(items))))
    return [item for index, item in enumerate(items) if index in chosen]


def medical_facts(rng: random.Random, scale: int) -> list[str]:
    facts = [f"Patient(pat{i})" for i in range(scale)]
    facts += [f"Diagnosed(pat{i}, cond{i % 7})" for i in _some(rng, range(scale), 0.5)]
    facts += [f"ChronicCondition(cond{c})" for c in _some(rng, range(7), 3 / 7)]
    facts += [f"TreatedBy(cond{c}, treat{c})" for c in _some(rng, range(7), 4 / 7)]
    doctors = range(max(1, scale // 10))
    specialists = set(_some(rng, doctors, 0.3))
    facts += [f"{'Specialist' if d in specialists else 'Physician'}(doc{d})" for d in doctors]
    return facts


def geography_facts(rng: random.Random, scale: int) -> list[str]:
    regions = max(2, scale // 5)
    capitals = set(_some(rng, range(scale), 0.1))
    facts = [f"{'Capital' if i in capitals else 'City'}(city{i})" for i in range(scale)]
    facts += [
        f"LocatedIn(city{i}, region{rng.randrange(regions)})"
        for i in _some(rng, range(scale), 0.6)
    ]
    facts += [f"PartOf(region{r}, country{r % 3})" for r in _some(rng, range(regions), 0.5)]
    return facts


def stock_facts(rng: random.Random, scale: int) -> list[str]:
    shuffled = rng.sample(range(scale), scale)
    listed = set(shuffled[: round(0.4 * scale)])
    companies = set(shuffled[round(0.4 * scale): round(0.7 * scale)])
    investors = [i for i in range(scale) if i not in listed and i not in companies]
    facts = [
        f"ListedCompany(co{i})" if i in listed else f"Company(co{i})" if i in companies else f"Investor(inv{i})"
        for i in range(scale)
    ]
    facts += [f"Owns(inv{i}, stk{i % 9})" for i in _some(rng, investors, 0.5)]
    facts += [f"TradedOn(stk{s}, ex{s % 2})" for s in _some(rng, range(9), 5 / 9)]
    return facts


def ontology_facts(seed: int, scale: int) -> list[str]:
    """The merged Medical + Geography + Stock database (≈4.45 facts per unit of scale)."""
    rng = random.Random(f"ontology-db:{seed}")
    return (
        medical_facts(rng, scale) + geography_facts(rng, scale) + stock_facts(rng, scale)
    )


def predicate_arities(rules) -> list[tuple[str, int]]:
    """(name, arity) of every predicate the rules mention, sorted."""
    from repro import parse_theory

    theory = parse_theory("\n".join(rules))
    found = set()
    for rule in theory:
        for item in (*rule.body, *rule.head):
            found.add((item.predicate.name, item.predicate.arity))
    return sorted(found)


class RandomQueries:
    """Distinct connected CQs: 2-3 atoms, 1-2 answer variables.

    Variables are named in order of first occurrence and the answer
    variables come first, so two texts are equal exactly when the
    queries have the same shape: a new text is a new shape for the
    session's rewriting cache.  Each atom after the first reuses a
    variable already present, which keeps the query connected (a
    disconnected query's rewriting is the product of its parts'), and a
    variable gets at most one unary atom: a conjunction of classes from
    unrelated hierarchies rewrites to the product of their hierarchies,
    and a few such queries would decide a run's mean.  For the same
    reason there are no four-atom queries (their costs vary so much that
    the top 1% of them took a sixth of a run's time), and none of one
    atom (there are only about sixty); two- and three-atom queries come
    in shuffled pairs, so every seed asks the same mix.
    """

    def __init__(self, seed: int, predicates: list[tuple[str, int]]) -> None:
        self.rng = random.Random(f"cold-queries:{seed}")
        self.unary = [name for name, arity in predicates if arity == 1]
        self.binary = [name for name, arity in predicates if arity == 2]
        self.seen: set[str] = set()
        self.sizes: list[int] = []

    def _one(self, size: int) -> str:
        rng = self.rng
        used: list[str] = []
        typed: set[str] = set()
        atoms = []

        def fresh() -> str:
            used.append(f"v{len(used)}")
            return used[-1]

        for _ in range(size):
            untyped = [var for var in used if var not in typed]
            unary = rng.random() < len(self.unary) / (len(self.unary) + len(self.binary))
            if unary and (untyped or not used):
                var = rng.choice(untyped) if used else fresh()
                typed.add(var)
                atoms.append(f"{rng.choice(self.unary)}({var})")
                continue
            first = rng.choice(used) if used else fresh()
            second = rng.choice(used) if rng.random() < 0.3 else fresh()
            atoms.append(f"{rng.choice(self.binary)}({first}, {second})")
        answers = used[: min(len(used), rng.randint(1, 2))]
        existential = [var for var in used if var not in answers]
        prefix = f"exists {', '.join(existential)}. " if existential else ""
        return f"q({', '.join(answers)}) := {prefix}{', '.join(atoms)}"

    def next(self) -> str:
        if not self.sizes:
            self.sizes = self.rng.sample((2, 3), 2)
        size = self.sizes.pop()
        while True:
            text = self._one(size)
            if text not in self.seen:
                self.seen.add(text)
                return text


def random_graph(rng: random.Random, nodes: int, edges: int) -> list[tuple[int, int]]:
    found: set[tuple[int, int]] = set()
    while len(found) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            found.add((a, b))
    return sorted(found)


def edge_facts(edges) -> str:
    return "\n".join(f"E(n{a}, n{b})" for a, b in edges)


# ----------------------------------------------------------------------
# Workload state
# ----------------------------------------------------------------------
@dataclass
class Op:
    run: Callable[[], object]
    after: Callable[[object], bool] = lambda output: True


@dataclass
class State:
    op: Callable[[int], Op]
    counters: Callable[[], Counter]
    close: Callable[[], None] = lambda: None
    info: dict = field(default_factory=dict)


def _session_state(session, make_op, info) -> State:
    return State(
        op=make_op,
        counters=lambda: Counter(session.stats.counters),
        close=session.close,
        info=info,
    )


def setup_answer_cold(seed: int, scale: int = 100) -> State:
    """Ad-hoc queries: every operation answers a query shape never seen before.

    Stores are loaded in set-up with a query the generator cannot
    produce (it has a constant), so no timed shape is cached.
    """
    import repro
    from repro import OMQASession, parse_instance, parse_query, parse_theory

    rules = MEDICAL_RULES + GEOGRAPHY_RULES + STOCK_RULES
    theory = parse_theory("\n".join(rules), name="merged")
    database = parse_instance("\n".join(ontology_facts(seed, scale)))
    session = OMQASession(theory)
    warmup = parse_query("q(x) := Diagnosed(x, 'cond0')")
    for strategy in STRATEGIES:
        session.answer(warmup, database, strategy)
    queries = RandomQueries(seed, predicate_arities(rules))

    def make_op(index: int) -> Op:
        text = queries.next()
        strategy = STRATEGIES[index % len(STRATEGIES)]

        def after(answers) -> bool:
            if index % 10:
                return True
            other = STRATEGIES[(index + 1) % len(STRATEGIES)]
            return session.answer(parse_query(text), database, other) == answers

        return Op(lambda: session.answer(repro.parse_query(text), database, strategy), after)

    return _session_state(session, make_op, {"facts": len(database), "rules": len(rules)})


def setup_answer_warm(seed: int, scale: int = 2000) -> State:
    """Repeated named queries: every (shape, strategy) is answered once in set-up."""
    import repro
    from repro import OMQASession, parse_instance, parse_query, parse_theory

    rules = MEDICAL_RULES + GEOGRAPHY_RULES + STOCK_RULES
    theory = parse_theory("\n".join(rules), name="merged")
    database = parse_instance("\n".join(ontology_facts(seed, scale)))
    named = {**MEDICAL_QUERIES, **GEOGRAPHY_QUERIES, **STOCK_QUERIES}
    session = OMQASession(theory)
    expected = {}
    for name, text in named.items():
        for strategy in STRATEGIES:
            answers = session.answer(parse_query(text), database, strategy)
            expected.setdefault(name, answers)
    # The popularity ranking is fixed (it decides how costly the workload
    # is); the seed draws the sequence.
    ranked = list(named)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(ranked))]
    rng = random.Random(f"warm-order:{seed}")

    def make_op(index: int) -> Op:
        name = rng.choices(ranked, weights=weights)[0]
        text = named[name]
        strategy = STRATEGIES[index % len(STRATEGIES)]
        return Op(
            lambda: session.answer(repro.parse_query(text), database, strategy),
            lambda answers: answers == expected[name],
        )

    return _session_state(session, make_op, {"facts": len(database), "queries": len(named)})


def setup_materialize(
    seed: int, tc_nodes: tuple[int, int] = (24, 34), td_length: tuple[int, int] = (4, 8)
) -> State:
    """From-scratch chase jobs cycling through four families.

    0. dense transitive closure (join-heavy datalog, columnar kernel);
    1. transitive closure plus a Skolem rule;
    2. a 4-round prefix of the T_d chase (rules falling back from the
       columnar kernel);
    3. transitive closure into an in-memory SQLite store.
    Sizes (nodes of the random graph, length of the T_d path) step
    through their ranges as the family comes round again, so every seed
    runs the same sizes; the seed draws the graphs.
    Every tenth job of each family is re-chased with
    ``backend="memory"`` and must give the same atoms.  Set-up runs one
    small job of each family, so lazy imports are paid before timing.
    """
    import repro.chase
    import repro.storage
    from repro import ChaseBudget, parse_instance, parse_theory
    from repro.chase import chase
    from repro.storage import SQLiteStore, chase_into_store

    theories = {
        "tc": parse_theory("\n".join(TC_RULES), name="tc"),
        "tcs": parse_theory("\n".join(TCS_RULES), name="tcs"),
        "td": parse_theory("\n".join(TD_RULES), name="td"),
    }
    fixpoint = ChaseBudget(max_rounds=500)
    prefix = ChaseBudget(max_rounds=4)
    totals: Counter = Counter()

    def make_op(index: int) -> Op:
        rng = random.Random(f"materialize:{seed}:{index}")
        family, turn = index % 4, index // 4
        if family == 2:
            length = td_length[0] + turn % (td_length[1] - td_length[0] + 1)
            base = parse_instance("\n".join(f"G(a{i}, a{i + 1})" for i in range(length)))
            theory, budget = theories["td"], prefix
        else:
            nodes = tc_nodes[0] + turn % (tc_nodes[1] - tc_nodes[0] + 1)
            base = parse_instance(edge_facts(random_graph(rng, nodes, 2 * nodes)))
            theory = theories["tcs" if family == 1 else "tc"]
            budget = fixpoint
        sampled = turn % 10 == 0

        if family == 3:

            def run():
                store = repro.storage.SQLiteStore(":memory:")
                return store, repro.storage.chase_into_store(theory, base, store, budget=budget)

            def after(output) -> bool:
                store, result = output
                try:
                    totals.update(result.stats.counters)
                    if not result.terminated:
                        return False
                    if not sampled:
                        return True
                    reference = chase(theory, base, budget=budget, backend="memory")
                    return fact_digest(store.to_instance()) == fact_digest(reference.instance)
                finally:
                    store.close()

            return Op(run, after)

        def after(result) -> bool:
            totals.update(result.stats.counters)
            if family != 2 and not result.terminated:
                return False
            if not sampled:
                return True
            reference = chase(theory, base, budget=budget, backend="memory")
            return fact_digest(result.instance) == fact_digest(reference.instance)

        return Op(lambda: repro.chase.chase(theory, base, budget=budget), after)

    warmup = parse_instance(edge_facts(random_graph(random.Random(seed), 6, 8)))
    for theory in theories.values():
        chase(theory, warmup, budget=prefix)
    with SQLiteStore(":memory:") as store:
        chase_into_store(theories["tc"], warmup, store, budget=fixpoint)
    return State(op=make_op, counters=lambda: Counter(totals))


def reachable_pairs(edges) -> int:
    """How many (x, y) have a path of one or more edges from x to y."""
    successors: dict[int, list[int]] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
    total = 0
    for source in successors:
        seen: set[int] = set()
        frontier = list(successors[source])
        while frontier:
            node = frontier.pop()
            if node not in seen:
                seen.add(node)
                frontier.extend(successors.get(node, ()))
        total += len(seen)
    return total


def setup_maintain(
    seed: int, nodes: int = 30, edges: int = 75, pairs: "int | None" = 780, candidates: int = 16
) -> State:
    """Edge moves on a live transitive-closure fixpoint.

    Each update retracts one edge and adds another, so every update runs
    both DRed and a delta round (half adds and half retracts would put
    the median between two modes).  Moves come in pairs that undo each
    other, so the live fixpoint returns to its initial state after every
    pair and the cost of an update does not drift over the run.  Of
    ``candidates`` seeded random graphs the one whose transitive closure
    is nearest ``pairs`` pairs is kept, which keeps the work per update
    alike across seeds.  Every tenth update, a move and an undo in turn,
    is compared with a from-scratch chase of the same base.
    """
    import repro
    from repro import ChaseBudget, parse_instance, parse_theory
    from repro.chase import chase

    theory = parse_theory("\n".join(TCS_RULES), name="tcs")
    budget = ChaseBudget(max_rounds=500)
    rng = random.Random(f"maintain:{seed}")
    graphs = [random_graph(rng, nodes, edges) for _ in range(candidates)]
    if pairs is not None:
        graphs.sort(key=lambda graph: abs(reachable_pairs(graph) - pairs))
    present = set(graphs[0])
    initial = chase(theory, parse_instance(edge_facts(graphs[0])), budget=budget)
    live = {"result": initial}
    undo: list[tuple] = []
    totals: Counter = Counter()

    def make_op(index: int) -> Op:
        if undo:
            gone, back = undo.pop()
        else:
            gone = sorted(present)[rng.randrange(len(present))]
            while True:
                back = (rng.randrange(nodes), rng.randrange(nodes))
                if back[0] != back[1] and back not in present:
                    break
            undo.append((back, gone))
        present.discard(gone)
        present.add(back)
        change = {
            "retract": parse_instance(edge_facts([gone])),
            "add": parse_instance(edge_facts([back])),
        }
        current = live["result"]

        def after(outcome) -> bool:
            live["result"] = outcome.result
            totals.update(outcome.stats.counters)
            if not outcome.result.terminated:
                return False
            if index % 20 not in (0, 11):
                return True
            reference = chase(theory, parse_instance(edge_facts(sorted(present))), budget=budget)
            return fact_digest(outcome.result.instance) == fact_digest(reference.instance)

        return Op(lambda: repro.incremental_update(current, budget=budget, **change), after)

    return State(
        op=make_op,
        counters=lambda: Counter(totals),
        info={"initial_atoms": len(initial.instance)},
    )


LIBRARY_WORKLOADS: dict[str, Callable[..., State]] = {
    "answer_cold": setup_answer_cold,
    "answer_warm": setup_answer_warm,
    "materialize": setup_materialize,
    "maintain": setup_maintain,
}
