"""Tests for textual serialization (repro.logic.serialize)."""

from __future__ import annotations

import pytest

from repro.chase import ChaseBudget, chase
from repro.logic import parse_instance, parse_theory
from repro.logic.serialize import (
    SerializationError,
    dump_instance,
    dump_query,
    dump_rule,
    dump_theory,
    load_instance,
    load_query,
    load_theory,
    save_instance,
    save_query,
    save_theory,
    theory_from_json,
    theory_to_json,
)
from repro.workloads import (
    edge_path,
    example39_sticky,
    exercise23,
    t_a,
    t_d,
    university_ontology,
)

THEORIES = [t_a, exercise23, example39_sticky, t_d, university_ontology]


class TestTheoryRoundTrip:
    @pytest.mark.parametrize("factory", THEORIES)
    def test_dump_parse_identity(self, factory):
        theory = factory()
        reparsed = parse_theory(dump_theory(theory))
        assert len(reparsed) == len(theory)
        for original, parsed in zip(theory, reparsed):
            assert parsed.body == original.body
            assert parsed.head == original.head
            assert parsed.existential == original.existential

    def test_save_load_file(self, tmp_path):
        target = tmp_path / "theory.tgd"
        save_theory(t_a(), target)
        loaded = load_theory(target, name="T_a")
        assert len(loaded) == 2
        assert loaded.name == "T_a"

    def test_name_comment_included(self):
        assert "# theory: T_a" in dump_theory(t_a())

    def test_constants_quoted_and_round_trip_exact(self):
        theory = parse_theory("P(x) -> Q(x, 'c')\ntrue -> S('a', z)")
        assert dump_rule(theory[0]) == "P(x) -> Q(x,'c')"
        for reparsed in (
            parse_theory(dump_theory(theory)),
            theory_from_json(theory_to_json(theory)),
        ):
            assert len(reparsed) == len(theory)
            for original, parsed in zip(theory, reparsed):
                assert parsed.body == original.body
                assert parsed.head == original.head
                assert parsed.existential == original.existential
            assert not reparsed[0].universal_head_variables()

    @pytest.mark.parametrize("factory", THEORIES)
    def test_rule_without_constants_dumps_to_repr(self, factory):
        for rule in factory():
            assert dump_rule(rule) == repr(rule)


class TestInstanceRoundTrip:
    def test_dump_parse_identity(self):
        instance = parse_instance("E(a, b). P(a). Q(b, c, d)")
        assert load_equivalent(instance)

    def test_save_load_file(self, tmp_path):
        target = tmp_path / "data.facts"
        save_instance(edge_path(3), target)
        assert load_instance(target) == edge_path(3)

    def test_skolem_terms_rejected(self):
        run = chase(t_a(), parse_instance("Human(abel)"), budget=ChaseBudget(max_rounds=2))
        with pytest.raises(SerializationError):
            dump_instance(run.instance)

    def test_base_of_chase_still_serializable(self):
        run = chase(t_a(), parse_instance("Human(abel)"), budget=ChaseBudget(max_rounds=2))
        assert "Human(abel)" in dump_instance(run.base)


def load_equivalent(instance):
    return parse_instance(dump_instance(instance)) == instance


class TestQueryDump:
    def test_query_dump_reparses(self):
        from repro.logic import parse_query
        from repro.logic.containment import are_equivalent

        query = parse_query("q(x) := exists y, z. E(x, y), E(y, z)")
        reparsed = parse_query(dump_query(query).strip())
        assert are_equivalent(query, reparsed)

    def test_constants_quoted_and_round_trip_exact(self):
        # Bare identifiers parse as *variables*, so the dump must quote
        # constants or the round trip silently changes the query.
        from repro.logic import parse_query

        query = parse_query("q(x) := R('a0', x), E(x, 'b')")
        text = dump_query(query)
        assert "'a0'" in text and "'b'" in text
        reparsed = parse_query(text.strip())
        assert reparsed.atoms == query.atoms
        assert reparsed.answer_vars == query.answer_vars

    def test_dump_is_stable_cache_key(self):
        from repro.logic import parse_query

        query = parse_query("q(x) := exists y. E(x, y)")
        assert dump_query(query) == dump_query(parse_query(dump_query(query).strip()))

    def test_boolean_query(self):
        from repro.logic import parse_query

        query = parse_query("q() := exists x, y. E(x, y)")
        reparsed = parse_query(dump_query(query).strip())
        assert reparsed.is_boolean()
        assert reparsed.atoms == query.atoms

    def test_skolem_terms_rejected(self):
        from repro.logic import parse_query
        from repro.logic.terms import FunctionTerm, Variable

        query = parse_query("q() := exists x. E(x, x)")
        mangled = query.substitute(
            {Variable("x"): FunctionTerm("f_w0_deadbeef", (Variable("y"),))}
        )
        with pytest.raises(SerializationError):
            dump_query(mangled)

    def test_save_load_file(self, tmp_path):
        from repro.logic import parse_query

        query = parse_query("q(x) := exists y. R('a0', x), E(x, y)")
        target = tmp_path / "query.cq"
        save_query(query, target)
        loaded = load_query(target)
        assert loaded.atoms == query.atoms
        assert loaded.answer_vars == query.answer_vars
