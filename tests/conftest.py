import numpy as np
import pytest

from simon_coherence import SimonFunction


@pytest.fixture
def f_two_qubit() -> SimonFunction:
    # f(00)=00 f(01)=11 f(10)=11 f(11)=00, mask 11
    return SimonFunction(2, [0b00, 0b11, 0b11, 0b00], 0b11)


@pytest.fixture
def f_three_qubit() -> SimonFunction:
    # mask 110, image set {101, 010, 000, 110}
    return SimonFunction(3, [0b101, 0b010, 0b000, 0b110, 0b000, 0b110, 0b101, 0b010], 0b110)


def random_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def random_pure_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    amps = random_amplitudes(rng, dim)
    return np.outer(amps, amps.conj())


def random_mixed_density(rng: np.random.Generator, dim: int, terms: int = 3) -> np.ndarray:
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        rho += w * random_pure_density(rng, dim)
    return rho


def real_mixed_density(rng: np.random.Generator, spectrum) -> np.ndarray:
    """Q diag(spectrum) Q^T for a random orthogonal Q: real symmetric, known eigenvalues."""
    dim = len(spectrum)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    rho = (q * np.asarray(spectrum, dtype=float)) @ q.T
    return (rho + rho.T) / 2
