"""Textual and JSON serialization of theories, instances and queries.

The textual format is exactly the :mod:`repro.logic.parser` syntax, so
dump/parse round-trips are the identity (tested).  Chase-produced
instances contain Skolem function terms, which the fact syntax cannot
express — dumping them raises rather than silently flattening structure.

The JSON wire format (``*_to_json``/``*_from_json``) wraps the same text
in tagged envelopes — ``{"format": "repro/theory@1", ...}`` — and is the
contract of the :mod:`repro.service` HTTP API.  Reusing the parser
syntax inside JSON keeps one grammar authoritative: decode(encode(x))
is canonical-key-identical (property-tested), and malformed documents
raise :class:`SerializationError`, which the service maps to HTTP 400.
"""

from __future__ import annotations

from pathlib import Path

from .atoms import Atom
from .instance import Instance
from .query import ConjunctiveQuery
from .terms import Constant, FunctionTerm, Term, Variable
from .tgd import TGD, Theory


class SerializationError(ValueError):
    """The object contains structure the text syntax cannot express."""


def dump_rule(rule: TGD) -> str:
    """Render a rule in the parser's syntax, parse-exactly.

    The text is ``repr(rule)`` with every constant quoted: the parser
    reads a bare identifier in a rule as a variable, so ``repr`` would
    turn ``P(x) -> Q(x, 'c')`` into a rule with a universal head
    variable.  A rule without constants dumps to its ``repr``.
    """

    def text(item: Atom) -> str:
        args = ",".join(_dump_rule_term(term, rule) for term in item.args)
        return f"{item.predicate.name}({args})"

    body = ", ".join(text(item) for item in rule.body) if rule.body else "true"
    head = ", ".join(text(item) for item in rule.head)
    if rule.existential:
        names = ",".join(sorted(var.name for var in rule.existential))
        head = f"exists {names}. {head}"
    return f"{body} -> {head}"


def _dump_rule_term(term: Term, rule: TGD) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Constant):
        return f"'{term.name}'"
    raise SerializationError(
        f"rule {rule!r} contains the function term {term!r}; only "
        "constant/variable arguments are expressible in rule syntax"
    )


def dump_theory(theory: Theory) -> str:
    """Render a theory in the parser's rule syntax, one rule per line."""
    lines = []
    if theory.name:
        lines.append(f"# theory: {theory.name}")
    lines.extend(dump_rule(rule) for rule in theory)
    return "\n".join(lines) + "\n"


def dump_instance(instance: Instance) -> str:
    """Render a base instance in the fact syntax, one fact per line."""
    lines = []
    for item in sorted(instance, key=repr):
        for term in item.args:
            if isinstance(term, FunctionTerm):
                raise SerializationError(
                    f"fact {item!r} contains a Skolem term; only base "
                    "instances are serializable"
                )
        lines.append(f"{item!r}")
    return "\n".join(lines) + "\n"


def _dump_query_term(term: Term, query: ConjunctiveQuery) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Constant):
        # Query syntax reads bare identifiers as variables, so constants
        # must be quoted (``repr(query)`` prints them bare — fine for
        # humans, lossy for a parser round-trip).
        return f"'{term.name}'"
    raise SerializationError(
        f"query {query!r} contains the function term {term!r}; only "
        "constant/variable arguments are expressible in query syntax"
    )


def dump_query(query: ConjunctiveQuery) -> str:
    """Render a CQ in the ``q(...) := ...`` syntax, parse-exactly.

    Unlike ``repr(query)``, constants come out quoted, so
    ``parse_query(dump_query(q))`` is ``q`` itself (tested).  The text
    doubles as a canonical cache key: ``OMQASession`` keys compiled SQL
    by the dumped canonical shape.  Function terms raise
    :class:`SerializationError` — the syntax cannot express them.
    """
    head = ",".join(var.name for var in query.answer_vars)
    existential = sorted(var.name for var in query.existential_vars())
    prefix = f"exists {','.join(existential)}. " if existential else ""
    body = ", ".join(
        f"{item.predicate.name}"
        f"({','.join(_dump_query_term(term, query) for term in item.args)})"
        for item in query.atoms
    )
    return f"q({head}) := {prefix}{body}\n"


def save_theory(theory: Theory, path: str | Path) -> None:
    Path(path).write_text(dump_theory(theory), encoding="utf8")


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(dump_instance(instance), encoding="utf8")


def save_query(query: ConjunctiveQuery, path: str | Path) -> None:
    Path(path).write_text(dump_query(query), encoding="utf8")


def load_theory(path: str | Path, name: str = "") -> Theory:
    from .parser import parse_theory

    return parse_theory(Path(path).read_text(encoding="utf8"), name=name)


def load_instance(path: str | Path) -> Instance:
    from .parser import parse_instance

    return parse_instance(Path(path).read_text(encoding="utf8"))


def load_query(path: str | Path) -> ConjunctiveQuery:
    from .parser import parse_query

    return parse_query(Path(path).read_text(encoding="utf8"))


# ----------------------------------------------------------------------
# JSON wire format (the service API contract)
# ----------------------------------------------------------------------
THEORY_FORMAT = "repro/theory@1"
INSTANCE_FORMAT = "repro/instance@1"
QUERY_FORMAT = "repro/query@1"


def _expect_envelope(doc: object, tag: str, payload_key: str) -> dict:
    if not isinstance(doc, dict):
        raise SerializationError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("format") != tag:
        raise SerializationError(
            f"expected format {tag!r}, got {doc.get('format')!r}"
        )
    if payload_key not in doc:
        raise SerializationError(f"missing {payload_key!r} field")
    return doc


def theory_to_json(theory: Theory) -> dict:
    """The theory as a JSON-able envelope: one parser-syntax rule per entry."""
    return {
        "format": THEORY_FORMAT,
        "name": theory.name,
        "rules": [dump_rule(rule) for rule in theory],
    }


def theory_from_json(doc: object) -> Theory:
    """Decode :func:`theory_to_json` output (raises on malformed docs)."""
    from .parser import ParseError, parse_theory

    doc = _expect_envelope(doc, THEORY_FORMAT, "rules")
    rules = doc["rules"]
    if not isinstance(rules, list) or not all(
        isinstance(rule, str) for rule in rules
    ):
        raise SerializationError("'rules' must be a list of strings")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SerializationError("'name' must be a string")
    try:
        return parse_theory("\n".join(rules), name=name)
    except ParseError as exc:
        raise SerializationError(f"unparseable rule: {exc}") from exc


def instance_to_json(instance: Instance) -> dict:
    """The base instance as a JSON-able envelope, facts sorted.

    Like :func:`dump_instance`, Skolem terms raise — only base instances
    travel over the wire.
    """
    return {
        "format": INSTANCE_FORMAT,
        "facts": [
            line for line in dump_instance(instance).splitlines() if line
        ],
    }


def instance_from_json(doc: object) -> Instance:
    """Decode :func:`instance_to_json` output (raises on malformed docs)."""
    from .parser import ParseError, parse_instance

    doc = _expect_envelope(doc, INSTANCE_FORMAT, "facts")
    facts = doc["facts"]
    if not isinstance(facts, list) or not all(
        isinstance(fact, str) for fact in facts
    ):
        raise SerializationError("'facts' must be a list of strings")
    try:
        return parse_instance(". ".join(facts))
    except ParseError as exc:
        raise SerializationError(f"unparseable fact: {exc}") from exc


def query_to_json(query: ConjunctiveQuery) -> dict:
    """The CQ as a JSON-able envelope carrying its :func:`dump_query` text."""
    return {"format": QUERY_FORMAT, "query": dump_query(query).strip()}


def query_from_json(doc: object) -> ConjunctiveQuery:
    """Decode :func:`query_to_json` output (raises on malformed docs)."""
    from .parser import ParseError, parse_query

    doc = _expect_envelope(doc, QUERY_FORMAT, "query")
    text = doc["query"]
    if not isinstance(text, str):
        raise SerializationError("'query' must be a string")
    try:
        return parse_query(text)
    except ParseError as exc:
        raise SerializationError(f"unparseable query: {exc}") from exc
