"""Coherence quantifiers in the computational basis.

Five quantifiers are provided, each vanishing on diagonal states and
invariant under basis relabeling:

* Tsallis relative-entropy coherence of order alpha in (0,1) or (1,2]:
  ``(sum_j <j|rho^alpha|j>^(1/alpha) - 1) / (alpha - 1)``.
* l_{1,p} matrix-norm coherence for p in [1,2]: the l_1 norm over columns of
  the column-wise l_p norms of rho with its diagonal removed.
* Relative entropy of coherence ``S(diag(rho)) - S(rho)`` in bits.
* Skew-information coherence ``1 - sum_j <j|sqrt(rho)|j>^2``.
* l_1 coherence, the sum of off-diagonal magnitudes.

``FAMILIES`` names each kind with its parameter.  Dense-path functions take
a density matrix and run on all of it; a zero row and column add exactly 0 to
every measure, so ``density_of`` builds rho on a state's support only.
``uniform_superposition_coherence`` defines every measure on an
equal-magnitude superposition, as a function of its support size alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .states import StateVector, matrix_power, require_alpha
from .tolerances import TOL

__all__ = [
    "FAMILIES",
    "CoherenceMeasure",
    "tsallis",
    "l1p",
    "REL_ENTROPY",
    "SKEW_INFO",
    "L1",
    "DEFAULT_PANEL",
    "METHOD_DENSE",
    "METHOD_PURE",
    "METHOD_CLOSED",
    "tsallis_coherence",
    "l1p_coherence",
    "relative_entropy_coherence",
    "skew_information_coherence",
    "l1_coherence",
    "dense_coherence",
    "uniform_superposition_coherence",
    "pure_state_coherence",
]

METHOD_DENSE = "dense"
METHOD_PURE = "pure_fast"
METHOD_CLOSED = "closed_form"


def _require_p(p: float) -> None:
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")


# kind -> (parameter name, range check), or None for a kind without a parameter
FAMILIES: dict[str, tuple[str, Callable[[float], None]] | None] = {
    "tsallis": ("alpha", require_alpha),
    "l1p": ("p", _require_p),
    "rel_entropy": None,
    "skew_info": None,
    "l1": None,
}


@dataclass(frozen=True)
class CoherenceMeasure:
    """Tagged choice of quantifier; parameter ranges enforced at construction."""

    kind: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        family = FAMILIES[self.kind]
        if family is None:
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
            return
        name, check = family
        if self.param is None:
            raise ValueError(f"{self.kind} needs a parameter {name}")
        check(float(self.param))

    def label(self) -> str:
        family = FAMILIES[self.kind]
        return self.kind if family is None else f"{self.kind}({family[0]}={self.param:g})"

    def params_dict(self) -> dict[str, float]:
        family = FAMILIES[self.kind]
        return {} if family is None else {family[0]: float(self.param)}


def tsallis(alpha: float) -> CoherenceMeasure:
    return CoherenceMeasure("tsallis", float(alpha))


def l1p(p: float) -> CoherenceMeasure:
    return CoherenceMeasure("l1p", float(p))


REL_ENTROPY = CoherenceMeasure("rel_entropy")
SKEW_INFO = CoherenceMeasure("skew_info")
L1 = CoherenceMeasure("l1")

DEFAULT_PANEL: tuple[CoherenceMeasure, ...] = (
    tsallis(0.5),
    tsallis(2.0),
    l1p(1.0),
    l1p(2.0),
    REL_ENTROPY,
    SKEW_INFO,
)


def _clamp(value: float) -> float:
    # roundoff may dip slightly negative; anything beyond the clamp is a bug
    if value < -TOL.coherence_clamp:
        raise ArithmeticError(f"coherence evaluated to {value:.3e}, beyond roundoff")
    return 0.0 if value <= 0.0 else float(value)


def tsallis_coherence(rho: np.ndarray, alpha: float) -> float:
    """Tsallis relative-entropy coherence of order alpha.

    Orders within TOL.tsallis_limit_window of 1 delegate to the alpha -> 1
    limit, ln(2) times the relative entropy of coherence; ``matrix_power``
    rejects any other order outside (0,1) or (1,2].
    """
    if abs(alpha - 1.0) <= TOL.tsallis_limit_window:
        return math.log(2.0) * relative_entropy_coherence(rho)
    powered = matrix_power(rho, alpha)
    diag = np.diag(powered).real
    safe = np.where(diag > TOL.diag_power_floor, diag, 1.0)
    # a tiny order overflows log(safe) / alpha to -inf, and exp(-inf) = 0 is the right root
    with np.errstate(over="ignore"):
        roots = np.where(diag > TOL.diag_power_floor, np.exp(np.log(safe) / alpha), 0.0)
    return _clamp((roots.sum() - 1.0) / (alpha - 1.0))


def l1p_coherence(rho: np.ndarray, p: float) -> float:
    """l_{1,p} coherence: the sum over columns of the column-wise l_p norms of
    rho with its diagonal removed."""
    _require_p(p)
    mags = np.abs(np.asarray(rho))
    np.fill_diagonal(mags, 0.0)
    mags **= p
    return _clamp(float((mags.sum(axis=0) ** (1.0 / p)).sum()))


def relative_entropy_coherence(rho: np.ndarray) -> float:
    """S(diag(rho)) - S(rho) in bits; spectrum at or below the floor contributes 0."""
    rho = np.asarray(rho)
    return _clamp(_shannon_bits(np.diag(rho).real) - _shannon_bits(np.linalg.eigvalsh(rho)))


def skew_information_coherence(rho: np.ndarray) -> float:
    """1 - sum_j <j|sqrt(rho)|j>^2; sqrt(rho) = rho on rank-one input."""
    root = matrix_power(rho, 0.5)
    diag = np.diag(root).real
    return _clamp(1.0 - float((diag**2).sum()))


def l1_coherence(rho: np.ndarray) -> float:
    """Sum of off-diagonal magnitudes."""
    mags = np.abs(np.asarray(rho))
    return _clamp(float(mags.sum() - np.trace(mags)))


def dense_coherence(rho: np.ndarray, measure: CoherenceMeasure) -> float:
    """Dispatch a measure over the density-matrix path."""
    if measure.kind == "tsallis":
        return tsallis_coherence(rho, measure.param)
    if measure.kind == "l1p":
        return l1p_coherence(rho, measure.param)
    if measure.kind == "rel_entropy":
        return relative_entropy_coherence(rho)
    if measure.kind == "skew_info":
        return skew_information_coherence(rho)
    return l1_coherence(rho)


def uniform_superposition_coherence(support: int, measure: CoherenceMeasure) -> float:
    """Coherence of an equal-magnitude superposition over ``support`` = K
    basis states, whose density matrix has every entry 1/K and eigenvalue 1:
    tsallis = (K^(1 - 1/alpha) - 1) / (alpha - 1), or ln K within
    TOL.tsallis_limit_window of alpha = 1; l1p = (K - 1)^(1/p);
    rel_entropy = log2 K; skew_info = 1 - 1/K; l1 = K - 1."""
    if support < 1:
        raise ValueError(f"support must be positive, got {support}")
    m = float(support)
    kind = measure.kind
    if kind == "tsallis":
        alpha = measure.param
        if abs(alpha - 1.0) <= TOL.tsallis_limit_window:
            return math.log(m)
        # at K = 1 an order below 1 divides 0 by a negative number: -0.0, which _clamp makes 0.0
        return _clamp((m ** (1.0 - 1.0 / alpha) - 1.0) / (alpha - 1.0))
    if kind == "l1p":
        return (m - 1.0) ** (1.0 / measure.param)
    if kind == "rel_entropy":
        return math.log2(m)
    if kind == "skew_info":
        return 1.0 - 1.0 / m
    return m - 1.0


def pure_state_coherence(psi: StateVector, measure: CoherenceMeasure) -> float:
    """A measure of a sign-pattern state, whose ``psi.support`` nonzero
    amplitudes share one magnitude: the uniform formula at that count."""
    return uniform_superposition_coherence(psi.support, measure)


def _shannon_bits(weights: np.ndarray) -> float:
    """Shannon entropy in bits of ``weights``; weights at or below the
    eigenvalue floor contribute 0."""
    weights = np.asarray(weights, dtype=float)
    kept = weights > TOL.eigenvalue_floor
    return float(-(weights[kept] * np.log2(weights[kept])).sum())
