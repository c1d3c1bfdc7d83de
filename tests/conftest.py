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


def codes(psi: StateVector) -> np.ndarray:
    """The int8 ``(2^n_first, len(columns))`` grid of psi's codes: column j is
    the base moved by ``offsets[j]``."""
    return psi._codes(psi.offsets)


def second_register_distribution(psi: StateVector) -> np.ndarray:
    """Born probabilities p[z] = sum_x k(x, z)^2 2^-e over second-register values,
    exact: every column holds the base's count of codes."""
    count = np.count_nonzero(psi.base)
    return np.bincount(psi.columns, np.full(psi.columns.size, np.ldexp(count, -psi.e)), 1 << psi.n_second)


def parities(values, bits: int) -> np.ndarray:
    """The parity of the low ``bits`` bits of each of ``values``, bit by bit."""
    values = np.asarray(values)
    parity = np.zeros(values.shape, dtype=np.int64)
    for bit in range(bits):
        parity ^= (values >> bit) & 1
    return parity


def flat_state(n_first: int, n_second: int, k, e: int) -> StateVector:
    """The factored state of the flat joint code vector ``k`` with exponent ``e``.

    Its nonzero columns are written as shifts of the first of them, or else
    as sign flips of it, each with the smallest offset that fits; codes that
    neither form fits raise ValueError.
    """
    rows, cols = 1 << n_first, 1 << n_second
    grid = np.asarray(k, dtype=np.int8).reshape(rows, cols)
    columns = np.flatnonzero(grid.any(axis=0))
    if not columns.size:
        return StateVector(n_first, n_second, columns, np.zeros(rows, dtype=np.int8), columns.copy(), e)
    base = grid[:, columns[0]].copy()
    xs = np.arange(rows)
    candidates = {
        False: base[xs[:, None] ^ xs],  # row o: base shifted by o
        True: (1 - 2 * parities(xs[:, None] & xs, n_first)) * base,  # row o: base times (-1)^(o.y)
    }
    for phase, moved in candidates.items():
        fits = (moved[:, :, None] == grid[None, :, columns]).all(axis=1)
        if fits.any(axis=0).all():
            return StateVector(n_first, n_second, columns, base, fits.argmax(axis=0), e, phase)
    raise ValueError("codes do not factor into one base column under shifts or sign flips")


def random_factored_state(rng: np.random.Generator, n_first: int, n_second: int,
                          filled: int | None = None) -> StateVector:
    """A random factored sign pattern that the Hadamard layer maps to a sign pattern again.

    The base is +-(-1)^(a.x) on a random coset of a random subspace of
    dimension 0 to 2, the columns are a power of two of at most ``filled``
    (all by default) distinct random ones, each with a random offset, and
    the form is drawn at random.
    """
    rows, cols = 1 << n_first, 1 << n_second
    filled = cols if filled is None else filled
    span = [0]
    for _ in range(int(rng.integers(0, min(n_first, 2) + 1))):
        step = int(rng.choice(np.setdiff1d(np.arange(1, rows), span)))
        span += [x ^ step for x in span]
    inputs = int(rng.integers(rows)) ^ np.array(span)
    base = np.zeros(rows, dtype=np.int8)
    base[inputs] = rng.choice([-1, 1]) * (1 - 2 * parities(inputs & int(rng.integers(rows)), n_first))
    used = 1 << int(rng.integers(0, filled.bit_length()))
    columns = np.sort(rng.choice(cols, used, replace=False))
    offsets = rng.integers(0, rows, used)
    e = (len(span) * used).bit_length() - 1
    return StateVector(n_first, n_second, columns, base, offsets, e, bool(rng.integers(2)))


def random_codes(rng: np.random.Generator, n_first: int, n_second: int, filled: int | None = None):
    """(joint code grid, e) of ``random_factored_state``."""
    psi = random_factored_state(rng, n_first, n_second, filled)
    grid = np.zeros((1 << n_first, 1 << n_second), dtype=np.int8)
    grid[:, psi.columns] = codes(psi)
    return grid, psi.e


def random_exact_state(rng: np.random.Generator, n_first: int, n_second: int) -> StateVector:
    """``random_factored_state`` over all columns."""
    return random_factored_state(rng, n_first, n_second)


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
        _, collapsed = measure_second_register(stages[Stage.ORACLE], n)
        yield from stages.values()
        yield hadamard_first_register(collapsed)


def states_with_zeros(seed: int):
    """Random exact states on 2 to 5 qubits, most of their amplitudes exactly zero."""
    rng = np.random.default_rng(seed)
    for n_first, n_second in ((1, 1), (2, 1), (2, 3), (3, 2)):
        yield random_exact_state(rng, n_first, n_second)
