"""State vectors over a two-register qubit system and dense density matrices.

The joint computational basis packs the first register into the high-order
bits: basis index ``(x << n_second) | z`` holds first-register value ``x``
and second-register value ``z``.  Bit strings read big-endian, so the label
"110" names the integer 6.

``born_samples`` is the one Born-rule sampler: both measurements of the
circuit draw through it, the second register's from integer column sums of
k^2 and the first register's from ``first_register_distribution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """Exact real amplitudes k * 2^(-e/2) over the joint register basis, held by column.

    ``columns`` is the sorted array of second-register values z whose column
    may hold a nonzero amplitude, made read-only here, and ``k`` the
    C-contiguous int8 ``(2^n_first, len(columns))`` array of the codes of
    those columns, each in {0, +-1}; every amplitude outside ``columns`` is
    zero.  Both arrays are kept, not copied.  Every stage of a Simon circuit
    is such a sign pattern: an equal-magnitude superposition over its
    support.  The norm is checked exactly, as the integer identity
    ``support`` = 2^e; it and ``amps``, built on first use, are kept with the
    state.  A Simon circuit stage occupies one column or N/2 of them, so no
    layer touches the full grid.
    """

    n_first: int
    n_second: int
    columns: np.ndarray
    k: np.ndarray
    e: int

    def __post_init__(self) -> None:
        _require_registers(self.n_first, self.n_second)
        k = self.k
        if k.dtype != np.int8:
            raise ValueError(f"k must hold int8 codes, got {k.dtype}")
        if k.shape != (1 << self.n_first, self.columns.size) or not k.flags.c_contiguous:
            raise ValueError(f"codes of shape {k.shape} do not hold {self.columns.size} columns "
                             f"of {1 << self.n_first} rows contiguously")
        self.columns.flags.writeable = False
        if k.size and (k.min() < -1 or k.max() > 1):
            raise ValueError("codes k must lie in {0, +-1}")
        if self.e < 0 or self.support != 1 << self.e:
            raise ValueError(f"state not normalized: sum k^2 = {self.support}, 2^e = 2^{self.e}")

    @cached_property
    def support(self) -> int:
        """The number of nonzero codes, each of them +-1: sum k^2."""
        return int(np.count_nonzero(self.k))

    @property
    def unit(self) -> float:
        """The magnitude of every nonzero amplitude: 1/sqrt(2^e), exactly
        2^(-e/2) for even e and within one ulp of it for odd e."""
        return 1.0 / math.sqrt(1 << self.e)

    @cached_property
    def amps(self) -> np.ndarray:
        """The flat joint float64 amplitude vector k * unit, zero outside ``columns``."""
        grid = np.zeros((1 << self.n_first, 1 << self.n_second))
        grid[:, self.columns] = np.multiply(self.k, self.unit, dtype=np.float64)
        return grid.reshape(-1)


def basis_state(n_first: int, n_second: int, index: int = 0) -> StateVector:
    """Computational basis state |index> over the joint registers."""
    _require_registers(n_first, n_second)
    dim = 1 << (n_first + n_second)
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    k = np.zeros((1 << n_first, 1), dtype=np.int8)
    k[index >> n_second, 0] = 1
    return StateVector(n_first, n_second, np.array([index & ((1 << n_second) - 1)]), k, 0)


def hadamard_first_register(psi: StateVector) -> StateVector:
    """Hadamard on every first-register qubit, identity on the second.

    A fast Walsh-Hadamard transform over the first-register index bits with
    the second-register index held fixed.  H on n qubits is 2^(-n/2) times a
    +-1 matrix, so the unnormalized butterflies run in place on a copy of the
    codes, the exponent grows by n_first, and a factor 2^t common to every new
    code then moves back into the exponent.  The layer keeps the columns; it
    is unitary, and an involution on the states it accepts.

    Every butterfly value of a column is a signed sum of that column's codes,
    so its sum of |k| bounds them all: the butterflies run in the narrowest
    integer type that holds it, int8 for every layer of the circuit.  Codes
    the transform leaves outside {0, +-1}, as it does when a column of two
    codes stands beside a column of one, raise ValueError before any cast
    back to int8, so none can wrap into a valid code.
    """
    dtype = np.int8
    # a column's sum of |k| is its count of codes, so at most 2^e
    if 1 << psi.e > np.iinfo(dtype).max:
        mass = int(np.add.reduce(np.abs(psi.k), axis=0, dtype=np.int32).max())
        dtype = next(t for t in (np.int8, np.int16, np.int32) if mass <= np.iinfo(t).max)
    k = psi.k.astype(dtype)
    _butterflies(k)
    common = int(np.bitwise_or.reduce(k, axis=None))
    shift = (common & -common).bit_length() - 1
    if shift:
        np.right_shift(k, shift, out=k)
    if k.dtype != np.int8:
        if k.min() < -1 or k.max() > 1:
            raise ValueError("codes k must lie in {0, +-1}")
        k = k.astype(np.int8)
    return StateVector(psi.n_first, psi.n_second, psi.columns, k, psi.e + psi.n_first - 2 * shift)


def _butterflies(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard butterflies down the rows of ``a``, in place."""
    rows = a.shape[0]
    spare = np.empty(a.size // 2, dtype=a.dtype)
    h = 1
    while h < rows:
        pairs = a.reshape(rows // (2 * h), 2, h * a.shape[1])
        top = pairs[:, 0, :]
        bottom = pairs[:, 1, :]
        saved = spare.reshape(top.shape)
        np.copyto(saved, top)
        np.add(top, bottom, out=top)
        np.subtract(saved, bottom, out=bottom)
        h *= 2


def density_of(psi: StateVector) -> np.ndarray:
    """Rank-one density matrix |psi><psi| on the support of psi.

    The matrix is the real symmetric v v^T for the nonzero amplitudes
    v = k * unit in joint-index order: the principal submatrix of the full
    N^2 x N^2 outer product of ``psi.amps`` on the indices where psi is
    nonzero, with the same bits.  Every row and column left out is zero, and
    adds exactly 0 to every coherence measure.
    """
    # the codes' C order over the sorted occupied columns is joint-index order
    flat = psi.k.reshape(-1)
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
    """Born probabilities p[x] = sum_z k(x, z)^2 2^-e over first-register values, exact."""
    return np.ldexp(np.add.reduce(psi.k * psi.k, axis=1, dtype=np.int32), -psi.e)


def born_samples(weights: np.ndarray, rng: np.random.Generator):
    """Endless Born samples: indices of ``weights`` drawn in proportion to them.

    ``weights`` may be any nonnegative integers or floats; only the positive
    ones can be drawn.  Each sample is what ``Generator.choice`` draws from
    the positive weights normalised, a uniform double located in their
    cumulative sums, so the stream is the same.  Weights scaled by a power
    of two normalise to the same doubles and give the same stream.  The
    doubles are drawn a block at a time, and the weights summed once.
    """
    support = np.flatnonzero(weights > 0)
    cdf = np.cumsum(weights[support] / weights[support].sum())
    cdf /= cdf[-1]
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
