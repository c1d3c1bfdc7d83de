"""State vectors over a two-register qubit system and dense density matrices.

The joint computational basis packs the first register into the high-order
bits: basis index ``(x << n_second) | z`` holds first-register value ``x``
and second-register value ``z``.  Bit strings read big-endian, so the label
"110" names the integer 6.

A state is held factored, as one base column of first-register codes under a
per-column shift or sign flip, and a Hadamard layer transforms the base
alone: with W the +-1 Hadamard matrix, W X^o = Z^o W and W Z^o = X^o W
(O'Donnell, *Analysis of Boolean Functions*, ch. 1).

``born_samples`` is the one Born-rule sampler: both measurements of the
circuit draw through it, the second register's from the integer count of
codes in each column and the first register's from
``first_register_distribution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .tolerances import TOL

__all__ = [
    "StateVector",
    "basis_state",
    "hadamard_first_register",
    "density_of",
    "hermitian_eig",
    "matrix_power",
    "first_register_distribution",
    "born_samples",
]

# doubles drawn per call of the generator; a measurement takes one, a recovery about n + 1
_SAMPLE_BLOCK = 32


@dataclass(frozen=True, eq=False)
class StateVector:
    """Exact real amplitudes k * 2^(-e/2) over the joint register basis, held factored.

    ``columns`` is the strictly increasing integer array of second-register
    values z whose column holds amplitude; every amplitude outside them is
    zero.  Every column is the int8 ``base`` column of 2^n_first codes in
    {0, +-1} moved by its entry o of ``offsets``, which is aligned with
    ``columns``:

    * in the shift form (``phase`` false) column j is X^o base, that is
      k[x, j] = base[x ^ o];
    * in the phase form column j is Z^o base, k[y, j] = (-1)^(y.o) base[y].

    The arrays are kept, not copied, and made read-only.  Every stage of a
    Simon circuit is such a sign pattern: one column, or one column per image
    of f, each a shift of the indicator of f^-1(f(0)) before the second
    Hadamard layer and a character times its transform after it.  The norm
    is checked exactly, as the integer identity ``support`` = 2^e, where
    ``support``, the number of nonzero codes (each +-1, so sum k^2), is the
    base's count of them once for every column, counted once here.
    ``amps``, the flat joint vector, is built on first use and kept; no layer
    of the circuit reads it.
    """

    n_first: int
    n_second: int
    columns: np.ndarray
    base: np.ndarray
    offsets: np.ndarray
    e: int
    phase: bool = False
    support: int = field(init=False)

    def __post_init__(self) -> None:
        _require_registers(self.n_first, self.n_second)
        columns, base, offsets = self.columns, self.base, self.offsets
        if columns.ndim != 1 or columns.dtype.kind not in "iu":
            raise ValueError(f"columns must be a 1-D integer array, got {columns.dtype} "
                             f"of shape {columns.shape}")
        # strictly increasing, so the first and last bound every column
        if columns.size and (columns[0] < 0 or columns[-1] >> self.n_second
                             or (columns.size > 1 and (columns[1:] <= columns[:-1]).any())):
            raise ValueError(f"columns must be strictly increasing {self.n_second}-bit "
                             "second-register values")
        if base.dtype != np.int8 or base.shape != (1 << self.n_first,):
            raise ValueError(f"base must hold {1 << self.n_first} int8 codes, got {base.dtype} "
                             f"codes of shape {base.shape}")
        if offsets.shape != columns.shape:
            raise ValueError(f"offsets of shape {offsets.shape} do not match columns of shape "
                             f"{columns.shape}")
        if np.bitwise_or.reduce(offsets) >> self.n_first:
            raise ValueError(f"offsets must be {self.n_first}-bit first-register values")
        for array in (columns, base, offsets):
            array.flags.writeable = False
        if np.minimum.reduce(base) < -1 or np.maximum.reduce(base) > 1:
            raise ValueError("codes k must lie in {0, +-1}")
        support = int(np.count_nonzero(base)) * columns.size
        object.__setattr__(self, "support", support)
        if self.e < 0 or support != 1 << self.e:
            raise ValueError(f"state not normalized: sum k^2 = {support}, 2^e = 2^{self.e}")

    @property
    def unit(self) -> float:
        """The magnitude of every nonzero amplitude: 1/sqrt(2^e), exactly
        2^(-e/2) for even e and within one ulp of it for odd e."""
        return 1.0 / math.sqrt(1 << self.e)

    def column(self, j: int) -> np.ndarray:
        """The int8 codes of column j."""
        return self._codes(self.offsets[j:j + 1]).reshape(-1)

    @cached_property
    def amps(self) -> np.ndarray:
        """The flat joint float64 amplitude vector k * unit, zero outside ``columns``."""
        grid = np.zeros((1 << self.n_first, 1 << self.n_second))
        grid[:, self.columns] = np.multiply(self._codes(self.offsets), self.unit, dtype=np.float64)
        return grid.reshape(-1)

    def _codes(self, offsets: np.ndarray) -> np.ndarray:
        if offsets.size == 1 and not offsets[0]:
            return self.base[:, None]
        rows = np.arange(1 << self.n_first)[:, None]
        if self.phase:
            return _characters(self.n_first)[rows & offsets] * self.base[:, None]
        return self.base[rows ^ offsets]


@cache
def _characters(bits: int) -> np.ndarray:
    """(-1)^(the number of set bits of i) for every i below 2^bits, as read-only int8."""
    signs = np.ones(1, dtype=np.int8)
    for _ in range(bits):
        signs = np.concatenate((signs, -signs))
    signs.flags.writeable = False
    return signs


def basis_state(n_first: int, n_second: int, index: int = 0) -> StateVector:
    """Computational basis state |index> over the joint registers."""
    _require_registers(n_first, n_second)
    dim = 1 << (n_first + n_second)
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    base = np.zeros(1 << n_first, dtype=np.int8)
    base[index >> n_second] = 1
    return StateVector(n_first, n_second, np.array([index & ((1 << n_second) - 1)]), base,
                       np.zeros(1, dtype=np.int64), 0)


def hadamard_first_register(psi: StateVector) -> StateVector:
    """Hadamard on every first-register qubit, identity on the second.

    H on n qubits is 2^(-n/2) times the +-1 matrix W, and W X^o = Z^o W, so
    the layer runs the unnormalized Walsh-Hadamard butterflies on a copy of
    the base column alone, keeps the columns and offsets, and swaps the form
    between shift and phase; the exponent grows by n_first.  A factor 2^t
    common to every new code then moves back into the exponent.  The layer
    is unitary, and an involution on the states it accepts.

    The butterflies run in int32: every value is a signed sum of at most
    2^n_first codes, so none can wrap for any register the package builds.
    Codes the transform leaves outside {0, +-1} raise ValueError, found by
    Parseval: sum w^2 = 2^n_first * 4^-t * (the base's count of codes), and
    that is the count of nonzero w exactly when every w is in {0, +-1}.
    """
    w = psi.base.astype(np.int32)
    _butterflies(w)
    common = int(np.bitwise_or.reduce(w))
    shift = (common & -common).bit_length() - 1
    if shift:
        np.right_shift(w, shift, out=w)
    if np.count_nonzero(w) << 2 * shift != psi.support // psi.columns.size << psi.n_first:
        raise ValueError("codes k must lie in {0, +-1}")
    return StateVector(psi.n_first, psi.n_second, psi.columns, w.astype(np.int8), psi.offsets,
                       psi.e + psi.n_first - 2 * shift, not psi.phase)


def _butterflies(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform of the 1-D array ``a``, in place:
    one product with the Walsh matrix over the low three index bits, then a
    butterfly pass for each higher bit."""
    size = a.size
    low = _walsh(min(size.bit_length() - 1, 3))
    blocks = a.reshape(-1, low.shape[0])
    np.matmul(blocks, low, out=blocks)
    h = low.shape[0]
    while h < size:
        pairs = a.reshape(size // (2 * h), 2, h)
        top = pairs[:, 0, :]
        bottom = pairs[:, 1, :]
        top += bottom  # a + b
        bottom *= -2
        bottom += top  # a - b
        h *= 2


@cache
def _walsh(bits: int) -> np.ndarray:
    """The symmetric +-1 Walsh-Hadamard matrix of order 2^bits, (-1)^(x.y) at
    (x, y), as read-only int32."""
    rows = np.arange(1 << bits)
    matrix = _characters(bits)[rows[:, None] & rows].astype(np.int32)
    matrix.flags.writeable = False
    return matrix


def density_of(psi: StateVector) -> np.ndarray:
    """Rank-one density matrix |psi><psi| on the support of psi.

    The matrix is the real symmetric v v^T for the nonzero amplitudes
    v = k * unit in joint-index order: the principal submatrix of the full
    N^2 x N^2 outer product of ``psi.amps`` on the indices where psi is
    nonzero, with the same bits.  Every row and column left out is zero, and
    adds exactly 0 to every coherence measure.
    """
    # the codes' C order over the sorted occupied columns is joint-index order
    flat = psi._codes(psi.offsets).reshape(-1)
    support = np.multiply(flat[flat != 0], psi.unit, dtype=np.float64)
    return np.outer(support, support)


def hermitian_eig(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, orthonormal eigenvector columns) of a Hermitian matrix.

    Column phases are whatever LAPACK returns; ``matrix_power`` does not
    depend on them.  A real symmetric input stays in float64; anything else is
    computed in complex128.
    """
    rho = _as_float_array(rho)
    _require_square(rho)
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > TOL.hermiticity:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {herm:.3e}")
    try:
        return np.linalg.eigh(rho)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed to converge for {rho.shape[0]}x{rho.shape[0]} matrix"
        ) from exc


def matrix_power(rho: np.ndarray, alpha: float) -> np.ndarray:
    """rho**alpha for alpha in (0,1) or (1,2], eigenvalues floored at zero.

    Rank-one input (purity within TOL.rank_one of 1) is its own power and is
    returned as-is without an eigendecomposition.  Real symmetric input is
    powered in float64 arithmetic, complex input in complex128.
    """
    require_alpha(alpha)
    rho = _as_float_array(rho)
    _require_square(rho)
    # purity tr(rho^2), the squared Frobenius norm, within TOL.rank_one of 1
    # certifies a largest eigenvalue that close to 1
    if float(np.vdot(rho, rho).real) >= 1.0 - TOL.rank_one:
        return rho
    values, vectors = hermitian_eig(rho)
    floored = np.where(values > TOL.eigenvalue_floor, values, 0.0)
    powered = np.where(floored > 0.0, floored, 1.0) ** alpha
    powered = np.where(floored > 0.0, powered, 0.0)
    return (vectors * powered) @ vectors.conj().T


def require_alpha(alpha: float) -> None:
    """Entropic order must lie in (0,1) or (1,2]."""
    if not (0.0 < alpha <= 2.0) or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,2], got {alpha}")


def first_register_distribution(psi: StateVector) -> np.ndarray:
    """Born probabilities p[x] = sum_z k(x, z)^2 2^-e over first-register values, exact.

    In the phase form every column has the base's squares, so p is
    len(columns) * base^2 * 2^-e; in the shift form p[x] counts the columns
    whose shifted base is nonzero at x.
    """
    if psi.phase:
        return np.ldexp(np.multiply(psi.base, psi.base, dtype=np.int32),
                        psi.columns.size.bit_length() - 1 - psi.e)
    hits = psi.base.nonzero()[0][:, None] ^ psi.offsets
    return np.ldexp(np.bincount(hits.reshape(-1), minlength=1 << psi.n_first), -psi.e)


def born_samples(weights: np.ndarray, rng: np.random.Generator):
    """Endless Born samples: indices of ``weights`` drawn in proportion to them.

    ``weights`` may be any finite nonnegative integers or floats with a
    positive finite sum; any others raise ValueError.  Only the positive ones
    can be drawn.  Each sample is what ``Generator.choice`` draws from the
    positive weights normalised, a uniform double located in their
    cumulative sums, so the stream is the same.  Weights scaled by a power
    of two normalise to the same doubles and give the same stream.  The
    doubles are drawn a block at a time, and the weights checked and summed
    once, when the stream is made.
    """
    support = np.flatnonzero(weights)
    positive = weights[support]
    # a NaN or a negative weight leaves no sum, and an infinity an infinite one
    total = positive.sum() if weights.min() >= 0 else math.nan
    if not 0 < total < math.inf:
        raise ValueError("Born weights must be finite and nonnegative, with a positive finite sum")
    cdf = np.cumsum(positive / total)
    cdf /= cdf[-1]
    return _draws(support, cdf, rng)


def _draws(support: np.ndarray, cdf: np.ndarray, rng: np.random.Generator):
    while True:
        yield from support[cdf.searchsorted(rng.random(_SAMPLE_BLOCK), side="right")].tolist()


def _require_registers(n_first: int, n_second: int) -> None:
    if n_first < 0 or n_second < 0:
        raise ValueError("register sizes must be nonnegative")
    if n_first + n_second == 0:
        raise ValueError("need at least one qubit")


def _as_float_array(values) -> np.ndarray:
    """float64 for real input, complex128 for complex input."""
    return np.asarray(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)


def _require_square(rho: np.ndarray) -> None:
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
