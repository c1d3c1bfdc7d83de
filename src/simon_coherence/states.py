"""State vectors over a two-register qubit system and dense density matrices.

The joint computational basis packs the first register into the high-order
bits: basis index ``(x << n_second) | z`` holds first-register value ``x``
and second-register value ``z``.  Bit strings read big-endian, so the label
"110" names the integer 6.
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
    "magnitude_histogram",
    "hadamard_first_register",
    "density_of",
    "hermitian_eig",
    "matrix_power",
    "first_register_distribution",
    "column_weights",
]

# Below this many entries the float butterflies beat the int8 path's extra passes.
_SIGNED_MIN_ENTRIES = 1 << 13
# Entries squared at a time by first_register_distribution and column_weights.
_SQUARED_CHUNK_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized real amplitudes over the joint register basis, held by column.

    ``columns`` is the sorted array of second-register values z whose column
    may hold a nonzero amplitude, made read-only here, and ``block`` the
    C-contiguous float64 ``(2^n_first, len(columns))`` array of those columns;
    every amplitude outside ``columns`` is zero.  Both arrays are kept, not
    copied.  A Simon circuit stage occupies one column or N/2 of them, so no
    layer touches the full grid.  ``amps`` and ``magnitude_histogram`` are
    computed on first use and kept with the state.
    """

    n_first: int
    n_second: int
    columns: np.ndarray
    block: np.ndarray

    def __post_init__(self) -> None:
        _require_registers(self.n_first, self.n_second)
        block = self.block
        if block.dtype != np.float64:
            raise ValueError(f"block must hold float64 amplitudes, got {block.dtype}")
        if block.shape != (1 << self.n_first, self.columns.size) or not block.flags.c_contiguous:
            raise ValueError(f"block of shape {block.shape} does not hold {self.columns.size} columns "
                             f"of {1 << self.n_first} rows contiguously")
        self.columns.flags.writeable = False
        norm = float(np.linalg.norm(block))
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= TOL.norm:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")

    @cached_property
    def amps(self) -> np.ndarray:
        """The flat joint amplitude vector, zero outside ``columns``."""
        grid = np.zeros((1 << self.n_first, 1 << self.n_second))
        grid[:, self.columns] = self.block
        return grid.reshape(-1)

    @cached_property
    def magnitude_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """``magnitude_histogram`` of the amplitudes, computed once per state."""
        return magnitude_histogram(self.block)


def magnitude_histogram(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct nonzero |amp| values ascending, float64 count of each).

    Zero amplitudes are left out.  Both arrays are read-only.
    """
    amps = np.asarray(amps).reshape(-1)
    # most circuit stages are mostly zeros, so dropping them first leaves little
    # to sort; the one filtered copy is then made absolute and sorted in place
    values = amps[amps != 0.0]
    np.abs(values, out=values)
    values.sort()
    # the run lengths of the sorted magnitudes, as np.unique counts them
    bounds = np.empty(values.size + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    np.not_equal(values[1:], values[:-1], out=bounds[1:-1])
    edges = np.flatnonzero(bounds)
    counts = np.diff(edges).astype(np.float64)
    values = values[edges[:-1]]
    values.flags.writeable = False
    counts.flags.writeable = False
    return values, counts


def basis_state(n_first: int, n_second: int, index: int = 0) -> StateVector:
    """Computational basis state |index> over the joint registers."""
    _require_registers(n_first, n_second)
    dim = 1 << (n_first + n_second)
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    block = np.zeros((1 << n_first, 1))
    block[index >> n_second, 0] = 1.0
    return StateVector(n_first, n_second, np.array([index & ((1 << n_second) - 1)]), block)


def hadamard_first_register(psi: StateVector) -> StateVector:
    """Hadamard on every first-register qubit, identity on the second.

    Implemented as a normalized fast Walsh-Hadamard transform over the
    first-register index bits with the second-register index held fixed.
    Unitary, and an involution up to roundoff.  The transform mixes rows
    within each column, so it keeps the columns and runs in-place butterflies
    on a copy of the block.  Every amplitude sees the same additions and the
    same final scaling as in a transform of the full grid.

    A large block whose every entry is +0.0 or +-m, with at most two
    nonzeros per column (each oracle stage of the circuit), runs the same
    unnormalized butterflies on its int8 sign pattern k instead.  The result
    has the same bits: every partial sum of a column is 0, +-m or +-2m, so
    each float addition of the butterflies is exact and never makes -0.0,
    and the float result fl(k*m * c) equals k * fl(m * c) for
    c = fl(1/sqrt(N)) and k in {0, +-1, +-2}.
    """
    scale = 1.0 / math.sqrt(1 << psi.n_first)
    signed = _sign_pattern(psi.block)
    if signed is None:
        a = psi.block.copy()
        _butterflies(a)
        a *= scale
    else:
        signs, m = signed
        _butterflies(signs)
        a = np.multiply(signs, m * scale, dtype=np.float64)
    return StateVector(psi.n_first, psi.n_second, psi.columns, a)


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


def _sign_pattern(block: np.ndarray) -> tuple[np.ndarray, float] | None:
    """(int8 k, m > 0) with ``block == k * m`` when the block has at least
    ``_SIGNED_MIN_ENTRIES`` entries, each +0.0 or +-m, and no column holds more
    than two nonzeros; None otherwise."""
    if block.size < _SIGNED_MIN_ENTRIES:
        return None
    first = block[:, 0]
    nonzero = first[first != 0.0]
    if nonzero.size == 0:
        return None
    m = abs(float(nonzero[0]))
    plus = np.equal(block, m)
    minus = np.equal(block, -m)
    # a column count never exceeds the row count, so this type cannot wrap
    count = np.uint16 if block.shape[0] < 1 << 16 else np.uint32
    per_column = np.add.reduce(plus.view(np.uint8), axis=0, dtype=count)
    per_column += np.add.reduce(minus.view(np.uint8), axis=0, dtype=count)
    if per_column.max() > 2:
        return None
    # +0.0 is the one entry whose bits are all zero, so another magnitude, a
    # -0.0 or a NaN leaves the entries counted short of the block size
    positive_zeros = np.count_nonzero(np.equal(block.view(np.uint64), 0))
    if int(per_column.sum()) + positive_zeros != block.size:
        return None
    signs = plus.view(np.int8)
    np.subtract(signs, minus.view(np.int8), out=signs)
    return signs, m


def density_of(psi: StateVector) -> np.ndarray:
    """Rank-one density matrix |psi><psi| on the support of psi.

    The matrix is the real symmetric v v^T for the nonzero amplitudes v in
    joint-index order: the principal submatrix of the full N^2 x N^2 outer
    product on the indices where psi is nonzero, with the same bits.  Every
    row and column left out is zero, and adds exactly 0 to every coherence
    measure.
    """
    # the block's C order over the sorted occupied columns is joint-index order
    flat = psi.block.reshape(-1)
    support = flat[flat != 0.0]
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
    """Born probabilities p[x] = sum_z |amp(x, z)|^2 over first-register values.

    Each row is summed on its own, so squaring a few rows at a time gives the
    bits of one sum over the whole block without its full-size temporary.
    """
    block = psi.block
    probs = np.empty(block.shape[0])
    step = max(1, _SQUARED_CHUNK_ENTRIES // block.shape[1])
    for start in range(0, block.shape[0], step):
        probs[start:start + step] = np.square(block[start:start + step]).sum(axis=1)
    return probs


def column_weights(psi: StateVector) -> np.ndarray:
    """Born weight sum_x |amp(x, z)|^2 of each occupied column z, in ``psi.columns`` order.

    The rows are squared a chunk at a time into one buffer whose row 0
    carries the running sums, so no full-size temporary is made.  numpy sums
    the rows of a C-contiguous block of two or more columns one after
    another, ((r0 + r1) + r2) + ..., so those weights have the bits of one
    sum over the whole block; a single column, which numpy sums pairwise,
    may differ from that sum in the last bits.
    """
    block = psi.block
    rows, width = block.shape
    step = max(1, _SQUARED_CHUNK_ENTRIES // width)
    # the first chunk adds its rows to +0.0, which no nonnegative weight changes
    buffer = np.zeros((min(step, rows) + 1, width))
    for start in range(0, rows, step):
        chunk = block[start:start + step]
        filled = buffer[:chunk.shape[0] + 1]
        np.square(chunk, out=filled[1:])
        buffer[0] = filled.sum(axis=0)
    return buffer[0].copy()


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
