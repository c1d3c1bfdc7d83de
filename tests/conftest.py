import numpy as np
import pytest

from simon_coherence import (
    SimonFunction,
    Stage,
    StateVector,
    hadamard_first_register,
    measure_second_register,
    random_bijection,
    random_two_to_one,
    run_stages,
)


@pytest.fixture
def f_two_qubit() -> SimonFunction:
    # f(00)=00 f(01)=11 f(10)=11 f(11)=00, mask 11
    return SimonFunction(2, [0b00, 0b11, 0b11, 0b00], 0b11)


@pytest.fixture
def f_three_qubit() -> SimonFunction:
    # mask 110, image set {101, 010, 000, 110}
    return SimonFunction(3, [0b101, 0b010, 0b000, 0b110, 0b000, 0b110, 0b101, 0b010], 0b110)


def dot_mod2(a: int, b: int) -> int:
    """Inner product of two bit vectors modulo 2."""
    return (a & b).bit_count() & 1


def second_register_distribution(psi: StateVector) -> np.ndarray:
    """Born probabilities p[z] = sum_x k(x, z)^2 2^-e over second-register values, exact."""
    squares = np.add.reduce(psi.k * psi.k, axis=0, dtype=np.int64)
    return np.bincount(psi.columns, np.ldexp(squares, -psi.e), 1 << psi.n_second)


def flat_state(n_first: int, n_second: int, k, e: int) -> StateVector:
    """The state of the flat joint code vector ``k`` with exponent ``e``,
    holding only the second-register columns with a nonzero code."""
    grid = np.asarray(k, dtype=np.int8).reshape(1 << n_first, 1 << n_second)
    columns = np.flatnonzero(grid.any(axis=0))
    return StateVector(n_first, n_second, columns, grid.take(columns, axis=1), e)


def random_codes(rng: np.random.Generator, n_first: int, n_second: int, filled: int | None = None):
    """(joint code grid, e): a random sign pattern whose squares sum to 2^e.

    At most ``filled`` columns (all by default), drawn at random, are used,
    each holding one code +-1, one code +-2 or two codes +-1, so the Hadamard
    layer maps the pattern to codes in {0, +-1, +-2} again and every column's
    sum of k^2 is a power of two.
    """
    rows, cols = 1 << n_first, 1 << n_second
    filled = cols if filled is None else filled
    grid = np.zeros((rows, cols), dtype=np.int8)
    e = int(rng.integers(0, filled.bit_length()))
    left = 1 << e
    for z in rng.permutation(cols)[:filled]:
        weight = int(rng.choice([w for w in (1, 2, 4) if w <= left and (w != 2 or rows > 1)]))
        slots = rng.choice(rows, 2 if weight == 2 else 1, replace=False)
        grid[slots, z] = rng.choice([-1, 1], slots.size) * (2 if weight == 4 else 1)
        left -= weight
        if not left:
            return grid, e
    raise AssertionError("unreachable: 2^e <= filled columns of weight >= 1")


def random_exact_state(rng: np.random.Generator, n_first: int, n_second: int) -> StateVector:
    """``flat_state`` of ``random_codes``."""
    grid, e = random_codes(rng, n_first, n_second)
    return flat_state(n_first, n_second, grid, e)


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


def circuit_states(n: int):
    """Every stage, post-measure included, for a two-to-one f and a bijection."""
    for f in (random_two_to_one(n, (1 << n) - 1, n), random_bijection(n, n)):
        stages = run_stages(f)
        _, collapsed = measure_second_register(stages[Stage.ORACLE], f, n)
        yield from stages.values()
        yield hadamard_first_register(collapsed)


def states_with_zeros(seed: int):
    """Random exact states on 2 to 5 qubits, most of their amplitudes exactly zero."""
    rng = np.random.default_rng(seed)
    for n_first, n_second in ((1, 1), (2, 1), (2, 3), (3, 2)):
        yield random_exact_state(rng, n_first, n_second)
