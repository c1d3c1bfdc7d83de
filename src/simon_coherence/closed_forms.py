"""Dimension-only coherence of every stage of Simon's circuit.

Every stage is an equal-magnitude superposition over its support, so each
measure at a stage is ``measures.uniform_superposition_coherence``, imported
here, at that stage's support size.  ``support(stage, n, s)`` is the integer
table of those sizes for N = 2^n and mask s:

    stage           s != 0    s = 0
    initial         1         1
    hadamard        N         N
    oracle          N         N
    post_measure    N/2       N
    final_hadamard  N^2/4     N^2

Nothing here builds a state, which keeps dimensions up to 2^20 cheap.

The change ``final - hadamard`` for a nonzero mask is positive for every
panel measure when N > 4, zero at N = 4, and negative when N < 4, so the
second half of the circuit produces coherence exactly when n >= 3.

The l1 value at the final stage has two candidate algebraic forms,
N^2/4 - 1 and N^2/2 - 1; see ``final_stage_l1_candidates``.  Dense
simulation at small n confirms N^2/4 - 1 (the p = 1 matrix-norm value), and
that is the form used everywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .measures import DEFAULT_PANEL, L1, CoherenceMeasure, uniform_superposition_coherence
from .simon import Stage
from .tolerances import MAX_ORACLE_BITS

__all__ = [
    "REGIME_PRODUCTION",
    "REGIME_NEUTRAL",
    "REGIME_DEPLETION",
    "RegimeVerdict",
    "support",
    "hadamard_stage_coherence",
    "final_stage_coherence",
    "final_stage_l1_candidates",
    "coherence_delta",
    "classify_regime",
]

REGIME_PRODUCTION = "production"
REGIME_NEUTRAL = "neutral"
REGIME_DEPLETION = "depletion"


@dataclass(frozen=True)
class RegimeVerdict:
    """Per-measure coherence changes at a dimension and their common sign."""

    deltas: dict[CoherenceMeasure, float]
    regime: str


def _require_dim(dim: int) -> None:
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension must be a power of two at least 2, got {dim}")
    if dim > 1 << MAX_ORACLE_BITS:
        raise ValueError(f"dimension exceeds 2^{MAX_ORACLE_BITS}: {dim}")


def support(stage: Stage, n: int, s: int) -> int:
    """The support size at ``stage`` for n-bit registers and mask ``s``: the
    oracle leaves N/2 columns of a pair {x, x ^ s} (N of one x for s = 0), and
    a Hadamard layer spreads a pair over N/2 values of y and one x over N."""
    dim = 1 << n
    _require_dim(dim)
    if stage is Stage.INITIAL:
        return 1
    if stage is Stage.POST_MEASURE:
        return dim // 2 if s else dim
    if stage is Stage.FINAL_HADAMARD:
        return dim * dim // 4 if s else dim * dim
    return dim


def hadamard_stage_coherence(dim: int, measure: CoherenceMeasure) -> float:
    """Closed form after the first Hadamard layer: a uniform superposition over dim."""
    _require_dim(dim)
    return uniform_superposition_coherence(dim, measure)


def final_stage_coherence(dim: int, measure: CoherenceMeasure) -> float:
    """Closed form after the second Hadamard layer, for a nonzero pairing mask:
    a uniform superposition over dim^2/4."""
    _require_dim(dim)
    return uniform_superposition_coherence(dim * dim // 4, measure)


def final_stage_l1_candidates(dim: int) -> dict[str, float]:
    """Both published candidates for the final-stage l1 value.

    ``quarter_form`` is dim^2/4 - 1, the p = 1 specialization of the matrix
    norm; ``half_form`` is dim^2/2 - 1, an alternate statement.  They differ
    by dim^2/4 >= 1, so they cannot both be right: ``verify`` compares both
    with the dense l1 of the final stage it simulates, which confirms the
    quarter form at every n from 1 to 5 (n = 1 gives 0, n = 3 gives 15).
    """
    quarter = final_stage_coherence(dim, L1)
    n = float(dim)
    return {"quarter_form": quarter, "half_form": n * n / 2.0 - 1.0}


def coherence_delta(dim: int, measure: CoherenceMeasure) -> float:
    """Coherence change across the oracle plus second Hadamard layer."""
    return final_stage_coherence(dim, measure) - hadamard_stage_coherence(dim, measure)


def classify_regime(dim: int) -> RegimeVerdict:
    """Sign of the coherence change over the standard measure panel.

    Every panel measure of an equal-magnitude superposition strictly
    increases with its support, so every delta has the sign of the integer
    dim^2/4 - dim: the final stage's support less the hadamard stage's.
    """
    deltas = {measure: coherence_delta(dim, measure) for measure in DEFAULT_PANEL}
    growth = dim * dim // 4 - dim
    regime = REGIME_PRODUCTION if growth > 0 else REGIME_DEPLETION if growth < 0 else REGIME_NEUTRAL
    return RegimeVerdict(deltas, regime)
