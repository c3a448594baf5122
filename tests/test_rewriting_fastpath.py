"""The rewriting fast path: dedup, indexed subsumption, relevance filters.

The indexed engine (``RewritingBudget(use_indexes=True)``, the default)
must compute *exactly* what the naive reference mode computes — the three
filter layers only skip work whose outcome is forced.  This suite pins
that equivalence on the paper's fixtures and on seeded random linear
(hence BDD) theories, and pins the new ``rewrite.*`` counters.
"""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.logic import parse_query, parse_theory
from repro.logic.atoms import Atom
from repro.logic.query import ConjunctiveQuery
from repro.logic.signature import Predicate
from repro.logic.terms import Constant, Variable
from repro.logic.tgd import TGD, Theory
from repro.rewriting import RewritingBudget, canonical_form, canonical_key, rewrite
from repro.logic.containment import _one_folding_step, core_query
from repro.rewriting.canonical import (
    _individualize,
    _initial_colors,
    _refine,
    _search_labels,
)
from repro.rewriting.engine import _RULE_INDEX_CACHE, _theory_rules
from repro.rewriting.unification import _UnionFind
from repro.workloads.ontologies import (
    GeographyWorkload,
    MedicalWorkload,
    StockWorkload,
)
from repro.workloads import (
    example42_tc,
    t_a,
    t_p,
    university_ontology,
)


def keys_of(result) -> set:
    return {canonical_key(disjunct) for disjunct in result.ucq}


def rewrite_counters(result) -> dict:
    return {
        name: count
        for name, count in sorted(result.stats.counters.items())
        if name.startswith("rewrite.")
    }


def merged_ontologies() -> Theory:
    """Three DL-Lite-style ontologies as one theory.

    Most rules are irrelevant to any one atom, and independent chains
    reach isomorphic duplicates, so every filter layer engages.
    """
    workloads = (MedicalWorkload(), GeographyWorkload(), StockWorkload())
    rules = [rule for workload in workloads for rule in workload.theory.rules()]
    return Theory(tuple(rules), name="merged-ontologies")


FIXTURE_CASES = (
    # e1-adjacent: T_a's mother/human loop (BDD, not core-terminating).
    (t_a, "q(x) := exists y. Mother(x, y)"),
    (t_a, "q(x) := exists y, z. Mother(x, y), Mother(y, z)"),
    # e3 shape: path queries over the linear theory T_p.
    (t_p, "q(x0) := exists x1, x2, x3. E(x0, x1), E(x1, x2), E(x2, x3)"),
    (
        t_p,
        "q(x0) := exists x1, x2, x3, x4, x5, x6. E(x0, x1), E(x1, x2), "
        "E(x2, x3), E(x3, x4), E(x4, x5), E(x5, x6)",
    ),
    # T_c (Example 42): multi-head, multi-body rules.
    (example42_tc, "q(x) := exists y, x1, y1. R(x, y, x1, y1)"),
    (example42_tc, "q(x) := exists y. E(x, y)"),
    # a3 shape: the university join.
    (
        university_ontology,
        "q(x) := exists c, p, d. EnrolledIn(x, c), TaughtBy(c, p), MemberOf(p, d)",
    ),
    (
        merged_ontologies,
        "q(x, y, z) := exists c, r, s. "
        "Diagnosed(x, c), LocatedIn(y, r), Owns(z, s)",
    ),
)


class TestNaiveIndexedEquivalence:
    @pytest.mark.parametrize("factory, text", FIXTURE_CASES)
    def test_fixture_kept_sets_match(self, factory, text):
        theory = factory()
        naive = rewrite(theory, parse_query(text), RewritingBudget(use_indexes=False))
        indexed = rewrite(theory, parse_query(text))
        assert naive.complete and indexed.complete
        assert keys_of(naive) == keys_of(indexed)
        assert naive.always_true == indexed.always_true

    @pytest.mark.parametrize("factory, text", FIXTURE_CASES)
    def test_fixture_shared_counters_match(self, factory, text):
        """The filters never change what happens, only what is *checked*.

        steps/produced/evicted/kept are schedule counters — identical in
        both modes; subsumed_dropped differs only by the isomorphic
        duplicates the dedup layer absorbs first.
        """
        theory = factory()
        naive = rewrite(theory, parse_query(text), RewritingBudget(use_indexes=False))
        indexed = rewrite(theory, parse_query(text))
        n, i = rewrite_counters(naive), rewrite_counters(indexed)
        for name in ("rewrite.steps", "rewrite.produced", "rewrite.kept",
                     "rewrite.evicted", "rewrite.evicted_while_queued"):
            assert n.get(name, 0) == i.get(name, 0), name
        assert n.get("rewrite.subsumed_dropped", 0) == i.get(
            "rewrite.subsumed_dropped", 0
        ) + i.get("rewrite.dedup_hits", 0)
        # The index never *adds* containment searches.
        assert i.get("rewrite.subsumption_checks", 0) <= n.get(
            "rewrite.subsumption_checks", 0
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_linear_theories_match(self, seed):
        """Seeded random linear theories: indexed == naive, kept set and all."""
        rng = random.Random(7000 + seed)
        theory = _random_linear_theory(rng)
        budget_args = dict(max_kept=200, max_steps=5_000)
        for _ in range(3):
            query = _random_query(rng)
            naive = rewrite(
                theory,
                query,
                RewritingBudget(use_indexes=False, **budget_args),
            )
            indexed = rewrite(theory, query, RewritingBudget(**budget_args))
            assert naive.complete == indexed.complete
            assert keys_of(naive) == keys_of(indexed), f"seed={seed}\n{theory}\n{query}"
            assert naive.always_true == indexed.always_true


class TestCounterPins:
    def test_dedup_hits_on_isomorphic_duplicates(self):
        """Two independent chains reach isomorphic disjuncts through
        different unifier orders; the canonical-key dedup must absorb them."""
        theory = university_ontology()
        query = parse_query(
            "q(x, u) := exists c, p, c2, p2. EnrolledIn(x, c), TaughtBy(c, p), "
            "EnrolledIn(u, c2), TaughtBy(c2, p2)"
        )
        result = rewrite(theory, query)
        counters = rewrite_counters(result)
        assert counters["rewrite.dedup_hits"] == 9
        assert counters["rewrite.subsumption_skipped"] == 182

    def test_disconnected_join_over_merged_ontologies(self):
        """Three atoms sharing no variable rewrite independently, so the
        kept set is the product of the atoms' own rewritings; most of
        the merged rules are irrelevant to each atom."""
        theory = merged_ontologies()
        singles = (
            "q(x) := exists c. Diagnosed(x, c)",
            "q(y) := exists r. LocatedIn(y, r)",
            "q(z) := exists s. Owns(z, s)",
        )
        sizes = [len(rewrite(theory, parse_query(text)).ucq) for text in singles]
        result = rewrite(
            theory,
            parse_query(
                "q(x, y, z) := exists c, r, s. "
                "Diagnosed(x, c), LocatedIn(y, r), Owns(z, s)"
            ),
        )
        assert sizes == [2, 4, 2]
        assert len(result.ucq) == 2 * 4 * 2
        counters = rewrite_counters(result)
        assert counters["rewrite.rules_skipped"] == 464
        assert counters["rewrite.subsumption_skipped"] == 240
        assert counters["rewrite.subsumption_checks"] == 0
        assert counters["rewrite.dedup_hits"] == 13

    def test_subsumption_skipped_counts_pruned_candidates(self):
        theory = t_a()
        result = rewrite(
            theory, parse_query("q(x) := exists y, z. Mother(x, y), Mother(y, z)")
        )
        counters = rewrite_counters(result)
        # Every skipped candidate was provably hopeless, so the checks the
        # naive mode runs equal checks-performed + candidates-skipped minus
        # the searches dedup removed wholesale.
        naive = rewrite(
            theory,
            parse_query("q(x) := exists y, z. Mother(x, y), Mother(y, z)"),
            RewritingBudget(use_indexes=False),
        )
        assert counters["rewrite.subsumption_skipped"] > 0
        assert (
            counters["rewrite.subsumption_checks"]
            <= naive.stats.counters["rewrite.subsumption_checks"]
        )

    def test_rules_skipped_counts_irrelevant_rules(self):
        """A query over E never needs the Mother/Human rules."""
        rules = tuple(t_a().rules()) + tuple(t_p().rules())
        theory = Theory(rules, name="mixed")
        result = rewrite(theory, parse_query("q(x) := exists y. E(x, y)"))
        assert result.stats.counters["rewrite.rules_skipped"] > 0
        naive = rewrite(
            theory,
            parse_query("q(x) := exists y. E(x, y)"),
            RewritingBudget(use_indexes=False),
        )
        assert keys_of(result) == keys_of(naive)

    def test_subsumption_checks_count_only_performed_searches(self):
        """The drop scan stops at the first containing CQ: the counter
        reflects searches actually run, not candidates enumerated."""
        theory = t_a()
        result = rewrite(theory, parse_query("q(x) := Human(x)"))
        counters = rewrite_counters(result)
        naive = rewrite(
            theory,
            parse_query("q(x) := Human(x)"),
            RewritingBudget(use_indexes=False),
        )
        # Checks + skipped + dedup-short-circuits account for every
        # candidate the naive scan visited; no double counting.
        assert counters["rewrite.subsumption_checks"] >= 0
        assert (
            naive.stats.counters["rewrite.subsumption_checks"]
            >= counters["rewrite.subsumption_checks"]
        )


class TestCanonicalKeys:
    def test_isomorphic_queries_share_keys(self):
        left = parse_query("q(x) := exists y, z. E(x, y), E(y, z)")
        right = parse_query("q(u) := exists a, b. E(u, a), E(a, b)")
        assert canonical_key(left) == canonical_key(right)

    def test_distinct_constants_distinct_keys(self):
        left = parse_query("q(x) := E(x, 'c')")
        right = parse_query("q(x) := E(x, 'd')")
        assert canonical_key(left) != canonical_key(right)

    def test_answer_tuple_order_matters(self):
        left = parse_query("q(x, y) := E(x, y)")
        right = parse_query("q(y, x) := E(x, y)")
        assert canonical_key(left) != canonical_key(right)

    def test_random_renamings_preserve_keys(self):
        rng = random.Random(42)
        predicates = [Predicate("E", 2), Predicate("P", 1)]
        for _ in range(25):
            variables = [Variable(f"v{i}") for i in range(rng.randint(2, 5))]
            atoms = tuple(
                dict.fromkeys(
                    Atom(
                        (pred := rng.choice(predicates)),
                        tuple(rng.choice(variables) for _ in range(pred.arity)),
                    )
                    for _ in range(rng.randint(1, 4))
                )
            )
            used = sorted({v for a in atoms for v in a.variable_set()}, key=repr)
            answers = tuple(used[: rng.randint(0, len(used))])
            query = ConjunctiveQuery(answers, atoms)
            shuffled = list(used)
            rng.shuffle(shuffled)
            renaming = {
                old: Variable(f"w{index}")
                for index, old in zip(
                    (used.index(v) for v in shuffled), shuffled
                )
            }
            renamed = query.substitute(renaming)
            assert canonical_key(query) == canonical_key(renamed)

    def test_canonical_form_is_idempotent(self):
        query = parse_query("q(x) := exists y, z. E(x, y), E(y, z)")
        form = canonical_form(query)
        assert canonical_form(form) is form
        assert canonical_key(form) == canonical_key(query)


class TestForcedShortcuts:
    """The core and labeling shortcuts return what the full searches return."""

    PREDICATES = [Predicate(f"P{i}", arity) for i, arity in enumerate((1, 1, 2, 2, 2, 3))]

    def _random_cq(self, rng, predicates, symmetric=False) -> ConjunctiveQuery:
        """A CQ with one atom per entry of ``predicates`` (duplicates merged).

        ``symmetric`` drops constants and answer variables, so that more
        bodies have automorphisms the labeling search must break.
        """
        variables = [Variable(f"v{i}") for i in range(rng.randint(1, 5))]
        terms = variables if symmetric else variables + [Constant("c"), Constant("d")]
        atoms = tuple(
            dict.fromkeys(
                Atom(pred, tuple(rng.choice(terms) for _ in range(pred.arity)))
                for pred in predicates
            )
        )
        used = sorted({v for a in atoms for v in a.variable_set()}, key=repr)
        answers = () if symmetric else tuple(used[: rng.randint(0, min(2, len(used)))])
        return ConjunctiveQuery(answers, atoms)

    def test_distinct_predicates_admit_no_folding_step(self):
        rng = random.Random(17)
        for _ in range(300):
            predicates = rng.sample(self.PREDICATES, rng.randint(1, len(self.PREDICATES)))
            query = self._random_cq(rng, predicates)
            assert _one_folding_step(query) is None, query
            assert core_query(query) is query

    def test_forced_labeling_equals_full_search(self):
        rng = random.Random(23)
        forced = searched = 0
        for _ in range(400):
            symmetric = rng.random() < 0.5
            pool = self.PREDICATES[1:3] if symmetric else self.PREDICATES
            predicates = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            query = self._random_cq(rng, predicates, symmetric)
            answer_labels = {}
            for var in query.answer_vars:
                answer_labels.setdefault(var, len(answer_labels))
            existentials = sorted(query.existential_vars(), key=lambda v: v.name)
            base = _refine(
                query.atoms,
                existentials,
                answer_labels,
                _initial_colors(query.atoms, existentials, answer_labels),
            )
            full = _individualize(query.atoms, existentials, answer_labels, base)
            assert _search_labels(query.atoms, existentials, answer_labels) == full
            if len(set(base.values())) == len(existentials):
                forced += 1
            else:
                searched += 1
        assert forced > 50 and searched > 20, (forced, searched)


class TestRenamedRules:
    """Rules are renamed apart once per Theory; nothing is captured or raced."""

    def test_query_reusing_renamed_names_rewrites_like_its_twin(self):
        theory = MedicalWorkload().theory
        renamed_names = sorted(
            var.name for _, variables in _theory_rules(theory).renamed for var in variables
        )
        plain = parse_query("q(x) := exists c, t. Diagnosed(x, c), TreatedBy(c, t)")
        names = iter(renamed_names)
        renaming = {var: Variable(next(names)) for var in sorted(plain.variables(), key=repr)}
        twin = plain.substitute(renaming)
        assert {var.name for var in twin.variables()} <= set(renamed_names)
        left, right = rewrite(theory, plain), rewrite(theory, twin)
        assert keys_of(left) == keys_of(right)
        assert len(left.ucq) > 1
        assert (left.complete, left.always_true, left.explored) == (
            right.complete,
            right.always_true,
            right.explored,
        )
        assert rewrite_counters(left) == rewrite_counters(right)

    def test_threads_share_one_cache_and_match_sequential(self):
        texts = [
            "q(x) := exists y. Diagnosed(x, y), Condition(y)",
            "q(x) := exists t, p. TreatedBy(x, t), PrescribedBy(t, p)",
            "q(x) := Person(x)",
            "q(c) := exists s. MonitoredBy(c, s), Specialist(s)",
        ]

        def outcomes(theory):
            return [
                (
                    [repr(d) for d in result.ucq],
                    result.complete,
                    result.explored,
                    rewrite_counters(result),
                )
                for result in (rewrite(theory, parse_query(text)) for text in texts)
            ]

        def fresh_theory():
            # Many rules make the cache build long enough for threads to race.
            return Theory(list(MedicalWorkload().theory) * 20, name="medical-x20")

        expected = outcomes(fresh_theory())
        shared = fresh_theory()
        assert shared not in _RULE_INDEX_CACHE
        barrier = threading.Barrier(4)

        def work(_):
            barrier.wait(timeout=30)
            return _theory_rules(shared), outcomes(shared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often inside the cache build
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                seen = list(pool.map(work, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for entry, got in seen:
            assert entry is seen[0][0] is _RULE_INDEX_CACHE[shared]
            assert got == expected


class TestUnionFindIterative:
    def test_long_chain_does_not_recurse(self):
        """10k-element parent chain: the old recursive find would blow the
        default stack; the two-pass loop flattens it."""
        uf = _UnionFind()
        terms = [Constant(f"c{i}") for i in range(10_000)]
        for left, right in zip(terms, terms[1:]):
            # Build a deliberately deep chain by linking roots directly.
            uf._parent[left] = right
        uf._parent[terms[-1]] = terms[-1]
        root = uf.find(terms[0])
        assert root == terms[-1]
        # Path compression happened: every visited node now points at root.
        assert uf._parent[terms[0]] == terms[-1]
        assert uf._parent[terms[5000]] == terms[-1]

    def test_union_and_classes_still_work(self):
        uf = _UnionFind()
        a, b, c = Constant("a"), Constant("b"), Constant("c")
        uf.union(a, b)
        uf.union(b, c)
        assert uf.find(a) == uf.find(c)
        (members,) = uf.classes().values()
        assert members == {a, b, c}


PREDICATES = [
    Predicate("P", 1),
    Predicate("Q", 1),
    Predicate("E", 2),
    Predicate("F", 2),
]


def _random_linear_theory(rng: random.Random) -> Theory:
    """2-4 linear rules over a small mixed-arity signature (BDD)."""
    rules = []
    for index in range(rng.randint(2, 4)):
        body_pred = rng.choice(PREDICATES)
        body_vars = [Variable(f"x{i}") for i in range(body_pred.arity)]
        body = (Atom(body_pred, tuple(body_vars)),)
        head_pred = rng.choice(PREDICATES)
        head_args = []
        existential = set()
        for position in range(head_pred.arity):
            if body_vars and rng.random() < 0.6:
                head_args.append(rng.choice(body_vars))
            else:
                fresh = Variable(f"z{position}")
                head_args.append(fresh)
                existential.add(fresh)
        head = (Atom(head_pred, tuple(head_args)),)
        try:
            rules.append(TGD(body, head, frozenset(existential), f"r{index}"))
        except ValueError:
            continue
    if not rules:
        return _random_linear_theory(rng)
    return Theory(rules, name="fastpath-fuzz")


def _random_query(rng: random.Random) -> ConjunctiveQuery:
    variables = [Variable(f"v{i}") for i in range(rng.randint(1, 3))]
    atoms = []
    for _ in range(rng.randint(1, 3)):
        predicate = rng.choice(PREDICATES)
        args = tuple(rng.choice(variables) for _ in range(predicate.arity))
        atoms.append(Atom(predicate, args))
    atoms = tuple(dict.fromkeys(atoms))
    used = sorted({v for a in atoms for v in a.variable_set()}, key=repr)
    answers = tuple(used[: rng.randint(0, min(2, len(used)))])
    return ConjunctiveQuery(answers, atoms)
