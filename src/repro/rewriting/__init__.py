"""UCQ rewriting: piece unifiers, saturation, BDD diagnostics, answering."""

from .answering import (
    AgreementReport,
    answer,
    answer_by_materialization,
    answer_by_rewriting,
    cross_validate,
)
from .bdd import (
    BddVerdict,
    answer_depth_profile,
    depth_bound_from_rewriting,
    enough,
    probe_bdd,
)
from .canonical import canonical_form, canonical_key
from .engine import (
    RewritingBudget,
    RewritingResult,
    atomic_rewriting_sizes,
    rewrite,
    rewriting_size,
)
from .session import OMQASession, query_shape
from .unification import EmptyRewriting, PieceUnifier, iter_piece_unifiers

__all__ = [
    "AgreementReport",
    "BddVerdict",
    "EmptyRewriting",
    "OMQASession",
    "PieceUnifier",
    "RewritingBudget",
    "RewritingResult",
    "answer",
    "answer_by_materialization",
    "answer_by_rewriting",
    "answer_depth_profile",
    "atomic_rewriting_sizes",
    "canonical_form",
    "canonical_key",
    "cross_validate",
    "depth_bound_from_rewriting",
    "enough",
    "iter_piece_unifiers",
    "probe_bdd",
    "query_shape",
    "rewrite",
    "rewriting_size",
]
