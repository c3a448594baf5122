"""repro: an executable reproduction of *A Journey to the Frontiers of
Query Rewritability* (PODS 2022).

Subpackages
-----------
``repro.logic``
    First-order substrate: terms, atoms, instances, TGDs, CQs,
    homomorphisms, containment.
``repro.chase``
    The semi-oblivious Skolem chase (Definition 6), variants, provenance,
    and the Core-Termination machinery (Section 5).
``repro.rewriting``
    UCQ piece-rewriting (the FUS algorithm behind Theorem 1), BDD
    diagnostics, and end-to-end query answering strategies.
``repro.classes``
    Syntactic theory classes: linear, datalog, (frontier-)guarded, sticky,
    backward shy.
``repro.frontier``
    The paper's contribution: locality, bd-locality, distancing, the
    FUS/FES pipeline (Theorem 4), the marked-query five-operation process
    for T_d (Theorem 5), its T_d^K generalization (Theorem 6) and the
    Appendix-A normalization (Theorem 3).
``repro.workloads``
    Every named theory and witness-instance family from the paper.
``repro.bench``
    The parameter-sweep harness behind benchmarks/ and EXPERIMENTS.md.
``repro.storage``
    Two fact stores: an in-RAM id store for the columnar kernel and the
    session, and a durable SQLite store with UCQ rewritings compiled to
    SQL and a resumable store-backed chase with bounded RSS.
"""

__version__ = "1.0.0"

# Convenient top-level re-exports for the most used entry points.
from .chase import CancellationToken, ChaseBudget, ChaseCancelled
from .chase import chase as run_chase
from .chase import core_termination, is_model
from .logic import (
    Instance,
    Theory,
    evaluate,
    holds,
    parse_instance,
    parse_query,
    parse_rule,
    parse_theory,
)
from .incremental import UpdateOutcome, incremental_update, update_store_chase
from .rewriting import OMQASession, RewritingBudget, answer
from .telemetry import Telemetry

__all__ = [
    "CancellationToken",
    "ChaseBudget",
    "ChaseCancelled",
    "Instance",
    "UpdateOutcome",
    "incremental_update",
    "update_store_chase",
    "OMQASession",
    "RewritingBudget",
    "Telemetry",
    "Theory",
    "answer",
    "core_termination",
    "evaluate",
    "holds",
    "is_model",
    "parse_instance",
    "parse_query",
    "parse_rule",
    "parse_theory",
    "run_chase",
]
