"""Dimension-only coherence formulas for the circuit's two superposition stages.

After the first Hadamard layer the state is an equal-magnitude superposition
over N = 2^n basis states; after the oracle and second Hadamard layer it is
one over N^2/4 (for a nonzero pairing mask).  Every panel measure of an
equal-magnitude superposition over K states has one closed form in K,
``uniform_superposition_coherence``, so each stage's closed form is that
value at the stage's support: N, then N^2/4.  Nothing here builds a state,
which keeps dimensions up to 2^20 cheap.

The change ``final - hadamard`` is positive for every panel measure when
N > 4, zero at N = 4, and negative when N < 4, so the second half of the
circuit produces coherence exactly when n >= 3.

The l1 value at the final stage has two candidate algebraic forms,
N^2/4 - 1 and N^2/2 - 1; see ``final_stage_l1_candidates``.  Dense
simulation at small n confirms N^2/4 - 1 (the p = 1 matrix-norm value), and
that is the form used everywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .measures import DEFAULT_PANEL, L1, CoherenceMeasure
from .simon import Stage
from .tolerances import MAX_CLOSED_FORM_BITS, TOL

__all__ = [
    "REGIME_PRODUCTION",
    "REGIME_NEUTRAL",
    "REGIME_DEPLETION",
    "RegimeVerdict",
    "uniform_superposition_coherence",
    "hadamard_stage_coherence",
    "final_stage_coherence",
    "final_stage_l1_candidates",
    "stage_coherence",
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
    if dim > 1 << MAX_CLOSED_FORM_BITS:
        raise ValueError(f"dimension exceeds 2^{MAX_CLOSED_FORM_BITS}: {dim}")


def uniform_superposition_coherence(support: int, measure: CoherenceMeasure) -> float:
    """Coherence of an equal-magnitude superposition over ``support`` basis states."""
    if support < 1:
        raise ValueError(f"support must be positive, got {support}")
    m = float(support)
    kind = measure.kind
    if kind == "tsallis":
        alpha = measure.param
        if abs(alpha - 1.0) <= TOL.tsallis_limit_window:
            return math.log(m)
        return (m ** (1.0 - 1.0 / alpha) - 1.0) / (alpha - 1.0)
    if kind == "l1p":
        return (m - 1.0) ** (1.0 / measure.param)
    if kind == "rel_entropy":
        return math.log2(m)
    if kind == "skew_info":
        return 1.0 - 1.0 / m
    return m - 1.0


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
    norm; ``half_form`` is dim^2/2 - 1, an alternate statement.  They cannot
    both be right: dense simulation (n = 2 gives 3, n = 3 gives 15) confirms
    the quarter form.
    """
    quarter = final_stage_coherence(dim, L1)
    n = float(dim)
    return {"quarter_form": quarter, "half_form": n * n / 2.0 - 1.0}


def stage_coherence(stage: Stage, dim: int, s: int, measure: CoherenceMeasure) -> float | None:
    """Closed form at a circuit stage for mask ``s``, or None where the stage has none.

    The oracle stage shares the hadamard-stage value: a basis permutation
    cannot change any coherence in the panel.  The final stage has a closed
    form only for a nonzero mask.
    """
    if stage in (Stage.HADAMARD, Stage.ORACLE):
        return hadamard_stage_coherence(dim, measure)
    if stage == Stage.FINAL_HADAMARD and s != 0:
        return final_stage_coherence(dim, measure)
    return None


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
