"""State vectors over a two-register qubit system and dense density matrices.

The joint computational basis packs the first register into the high-order
bits: basis index ``(x << n_second) | z`` holds first-register value ``x``
and second-register value ``z``.  Bit strings read big-endian, so the label
"110" names the integer 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import TOL

__all__ = [
    "StateVector",
    "EigenSystem",
    "basis_state",
    "tensor",
    "hadamard_first_register",
    "density_of",
    "dephase",
    "purity",
    "is_rank_one",
    "hermitian_eig",
    "matrix_power",
    "first_register_distribution",
    "second_register_distribution",
    "validate_density_matrix",
]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over the joint register basis."""

    n_first: int
    n_second: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.n_first < 0 or self.n_second < 0:
            raise ValueError("register sizes must be nonnegative")
        if self.n_first + self.n_second == 0:
            raise ValueError("need at least one qubit")
        amps = np.ascontiguousarray(np.asarray(self.amps, dtype=np.complex128).reshape(-1))
        object.__setattr__(self, "amps", amps)
        dim = 1 << (self.n_first + self.n_second)
        if amps.size != dim:
            raise ValueError(f"expected {dim} amplitudes, got {amps.size}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > TOL.norm:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")

    @property
    def dim(self) -> int:
        return self.amps.size


def basis_state(n_first: int, n_second: int, index: int = 0) -> StateVector:
    """Computational basis state |index> over the joint registers."""
    dim = 1 << (n_first + n_second)
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_first, n_second, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Product state with a's qubits as the first register, b's as the second."""
    return StateVector(a.n_first + a.n_second, b.n_first + b.n_second, np.kron(a.amps, b.amps))


def hadamard_first_register(psi: StateVector) -> StateVector:
    """Hadamard on every first-register qubit, identity on the second.

    Implemented as a normalized fast Walsh-Hadamard transform over the
    first-register index bits with the second-register index held fixed.
    Unitary, and an involution up to roundoff.
    """
    rows = 1 << psi.n_first
    cols = 1 << psi.n_second
    if rows == 1:
        return psi
    a = psi.amps.reshape(rows, cols).copy()
    h = 1
    while h < rows:
        a = a.reshape(rows // (2 * h), 2, h * cols)
        top = a[:, 0, :].copy()
        bottom = a[:, 1, :]
        a[:, 0, :] = top + bottom
        a[:, 1, :] = top - bottom
        a = a.reshape(rows, cols)
        h *= 2
    a /= math.sqrt(rows)
    return StateVector(psi.n_first, psi.n_second, a.reshape(-1))


def density_of(psi: StateVector) -> np.ndarray:
    """Rank-one density matrix |psi><psi|.

    When no amplitude has an imaginary part, as at every stage of the Simon
    circuit, the matrix is the real symmetric float64 outer product, and the
    dense route downstream runs in real arithmetic.  Otherwise it is complex128.
    """
    amps = psi.amps
    if not amps.imag.any():
        amps = amps.real
    return np.outer(amps, amps.conj())


def dephase(rho: np.ndarray) -> np.ndarray:
    """Zero every off-diagonal entry; the diagonal is preserved exactly."""
    return np.diag(np.diag(np.asarray(rho)))


def purity(rho: np.ndarray) -> float:
    """tr(rho^2) of a Hermitian matrix, via the squared Frobenius norm."""
    rho = np.asarray(rho)
    return float(np.vdot(rho, rho).real)


def is_rank_one(rho: np.ndarray) -> bool:
    """Purity within TOL.rank_one of 1 certifies a largest eigenvalue that close to 1."""
    return purity(rho) >= 1.0 - TOL.rank_one


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues ascending; eigenvectors as matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(rho: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with a deterministic gauge.

    Columns are phased so the first component above the eigenvalue floor is
    real and positive, making repeated runs byte-for-byte reproducible.  A
    real symmetric input stays in float64 (real eigenvectors, signs fixed the
    same way); anything else is computed in complex128.
    """
    rho = _as_float_matrix(rho)
    _require_square(rho)
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > TOL.hermiticity:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {herm:.3e}")
    try:
        values, vectors = np.linalg.eigh(rho)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed to converge for {rho.shape[0]}x{rho.shape[0]} matrix"
        ) from exc
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nonzero = np.flatnonzero(np.abs(col) > TOL.eigenvalue_floor)
        if nonzero.size:
            lead = col[nonzero[0]]
            vectors[:, j] = col * (abs(lead) / lead)
    return EigenSystem(values, vectors)


def matrix_power(rho: np.ndarray, alpha: float) -> np.ndarray:
    """rho**alpha for alpha in (0,1) or (1,2], eigenvalues floored at zero.

    Rank-one input (purity within TOL.rank_one of 1) is its own power and is
    returned as-is without an eigendecomposition.  Real symmetric input is
    powered in float64 arithmetic, complex input in complex128.
    """
    require_alpha(alpha)
    rho = _as_float_matrix(rho)
    _require_square(rho)
    if is_rank_one(rho):
        return rho
    system = hermitian_eig(rho)
    floored = np.where(system.eigenvalues > TOL.eigenvalue_floor, system.eigenvalues, 0.0)
    powered = np.where(floored > 0.0, floored, 1.0) ** alpha
    powered = np.where(floored > 0.0, powered, 0.0)
    return (system.eigenvectors * powered) @ system.eigenvectors.conj().T


def require_alpha(alpha: float) -> None:
    """Entropic order must lie in (0,1) or (1,2]."""
    if not (0.0 < alpha <= 2.0) or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,2], got {alpha}")


def first_register_distribution(psi: StateVector) -> np.ndarray:
    """Born probabilities p[x] = sum_z |amp(x, z)|^2 over first-register values."""
    mags = np.abs(psi.amps.reshape(1 << psi.n_first, 1 << psi.n_second)) ** 2
    return mags.sum(axis=1)


def second_register_distribution(psi: StateVector) -> np.ndarray:
    """Born probabilities p[z] = sum_x |amp(x, z)|^2 over second-register values."""
    mags = np.abs(psi.amps.reshape(1 << psi.n_first, 1 << psi.n_second)) ** 2
    return mags.sum(axis=0)


def validate_density_matrix(rho: np.ndarray, check_psd: bool = False) -> None:
    """Raise ValueError unless rho is Hermitian with unit trace (and PSD if asked)."""
    rho = np.asarray(rho)
    _require_square(rho)
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > TOL.hermiticity:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
    trace_err = abs(complex(np.trace(rho)) - 1.0)
    if trace_err > TOL.trace:
        raise ValueError(f"trace differs from 1 by {trace_err:.3e}")
    if check_psd:
        smallest = float(np.linalg.eigvalsh(rho).min())
        if smallest < -TOL.psd:
            raise ValueError(f"negative eigenvalue {smallest:.3e} below -{TOL.psd}")


def _as_float_matrix(rho: np.ndarray) -> np.ndarray:
    """float64 for real input, complex128 for complex input."""
    return np.asarray(rho, dtype=np.complex128 if np.iscomplexobj(rho) else np.float64)


def _require_square(rho: np.ndarray) -> None:
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
