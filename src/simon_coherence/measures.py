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
``pure_state_coherence`` evaluates the same quantities from a sign-pattern
state's support size and exponent alone.
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


def pure_state_coherence(psi: StateVector, measure: CoherenceMeasure) -> float:
    """Evaluate a measure from pure-state amplitudes without forming the matrix.

    Every measure of a pure state depends only on the multiset of amplitude
    magnitudes.  A ``StateVector`` is a sign pattern: its K = ``psi.support``
    = 2^e nonzero amplitudes all have magnitude m = ``psi.unit`` and exact
    probability p = 2^-e, so each measure is a function of K, m and p:
    l1 = (K^2 - K) 2^-e, an integer sum and so exact,
    skew_info = 1 - K p^2, rel_entropy = -K p log2 p,
    tsallis = (K p^(1/alpha) - 1) / (alpha - 1) and
    l1p = K m ((K - 1) m^p)^(1/p).  p is far above every floor, since the
    state holds 2^e codes in memory.  Agrees with the dense path on
    |psi><psi| within TOL.cross_method.
    """
    support, unit = psi.support, psi.unit
    prob = math.ldexp(1.0, -psi.e)
    kind = measure.kind
    if kind == "tsallis":
        alpha = measure.param
        if abs(alpha - 1.0) <= TOL.tsallis_limit_window:
            return math.log(2.0) * _uniform_bits(support, prob)
        # as in tsallis_coherence, a tiny order's -inf exponent gives the right root 0
        with np.errstate(over="ignore"):
            root = np.exp(np.log(prob) / alpha)
        return _clamp((support * root - 1.0) / (alpha - 1.0))
    if kind == "l1p":
        p = measure.param
        powered = np.power(unit, p)
        # K m^p rounds to at least m^p, so the complement is never negative
        complement = support * powered - powered
        return _clamp(float(support * (unit * np.power(complement, 1.0 / p))))
    if kind == "rel_entropy":
        return _clamp(_uniform_bits(support, prob))
    if kind == "skew_info":
        return _clamp(1.0 - float(support * prob**2))
    return _clamp(math.ldexp(support * support - support, -psi.e))


def _uniform_bits(support: int, prob: float) -> float:
    """Shannon entropy in bits of ``support`` equal weights ``prob``."""
    return float(-(support * (prob * np.log2(prob))))


def _shannon_bits(weights: np.ndarray) -> float:
    """Shannon entropy in bits of ``weights``; weights at or below the
    eigenvalue floor contribute 0."""
    weights = np.asarray(weights, dtype=float)
    kept = weights > TOL.eigenvalue_floor
    return float(-(weights[kept] * np.log2(weights[kept])).sum())
