import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import fractional_matrix_power

from simon_coherence import (
    Stage,
    StateVector,
    basis_state,
    density_of,
    first_register_distribution,
    hadamard_first_register,
    hermitian_eig,
    matrix_power,
    random_bijection,
    random_two_to_one,
    run_stages,
)
from simon_coherence.states import column_weights, magnitude_histogram
from conftest import (
    circuit_states,
    flat_state,
    random_mixed_density,
    random_pure_density,
    real_mixed_density,
    second_register_distribution,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def normalized_state(n_first, n_second, raw):
    amps = np.asarray(raw, dtype=float)
    return flat_state(n_first, n_second, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------- construction


def test_state_vector_rejects_wrong_length():
    with pytest.raises(ValueError):
        StateVector(1, 1, np.arange(2), np.array([[1.0], [0.0]]))


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        flat_state(1, 0, np.array([1.0, 1.0]))
    # a NaN norm compares false against any bound, so it must fail the check, not pass it
    for bad in (math.nan, math.inf, -math.inf):
        for amps in ([bad, 0.0, 0.0, 0.0], [1.0, 0.0, bad, 0.0]):
            with pytest.raises(ValueError):
                flat_state(2, 0, np.array(amps))


def test_state_vector_rejects_empty_registers():
    with pytest.raises(ValueError):
        StateVector(0, 0, np.zeros(1, dtype=np.intp), np.ones((1, 1)))


def test_state_vector_holds_only_contiguous_float64_blocks():
    block = np.full((2, 2), 0.5)
    assert StateVector(1, 1, np.arange(2), block).block is block
    for bad, named in ((block.astype(np.complex128), "complex128"), (block.astype(np.float32), "float32"),
                       (block.T, "contiguously")):
        with pytest.raises(ValueError, match=named):
            StateVector(1, 1, np.arange(2), bad)


def test_basis_state_is_one_hot():
    psi = basis_state(2, 1, 5)
    expected = np.zeros(8)
    expected[5] = 1.0
    assert np.array_equal(psi.amps, expected)


# -------------------------------------------------------------------- hadamard


def test_hadamard_single_qubit_first_register():
    psi = hadamard_first_register(basis_state(1, 1, 0))
    assert np.allclose(psi.amps, [INV_SQRT2, 0, INV_SQRT2, 0])


def test_hadamard_two_qubit_first_register():
    psi = hadamard_first_register(basis_state(2, 2, 0))
    expected = np.zeros(16)
    expected[[0, 4, 8, 12]] = 0.5
    assert np.allclose(psi.amps, expected)


def test_hadamard_leaves_second_register_alone():
    psi = hadamard_first_register(basis_state(1, 1, 1))  # |0>|1>
    assert np.allclose(psi.amps, [0, INV_SQRT2, 0, INV_SQRT2])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2**31 - 1))
def test_hadamard_preserves_norm_and_is_involution(n1, n2, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << (n1 + n2)
    psi = normalized_state(n1, n2, rng.standard_normal(dim))
    once = hadamard_first_register(psi)
    assert abs(np.linalg.norm(once.amps) - 1.0) < 1e-12
    twice = hadamard_first_register(once)
    assert np.abs(twice.amps - psi.amps).max() < 1e-12


# --------------------------------------------------------------------- density


def test_density_of_basis_state():
    rho = density_of(basis_state(1, 0, 0))
    assert np.array_equal(rho, [[1.0]])


def test_density_of_plus_state():
    rho = density_of(flat_state(1, 0, [INV_SQRT2, INV_SQRT2]))
    assert np.allclose(rho, np.full((2, 2), 0.5))


def test_density_of_uniform_first_register_block():
    psi = hadamard_first_register(basis_state(2, 2, 0))
    rho = density_of(psi)
    assert np.array_equal(rho, np.full((4, 4), 0.25))
    assert abs(np.trace(rho) - 1.0) < 1e-12


def full_outer_on_support(psi):
    """The principal submatrix of the full |psi><psi| on the indices where psi is nonzero."""
    support = np.flatnonzero(psi.amps)
    return np.outer(psi.amps, psi.amps)[np.ix_(support, support)]


@pytest.mark.parametrize("n", range(1, 6))
def test_density_of_is_the_full_outer_product_on_the_support_bit_for_bit(n):
    for psi in circuit_states(n):
        rho = density_of(psi)
        assert "amps" not in vars(psi)
        expected = full_outer_on_support(psi)
        assert rho.dtype == expected.dtype == np.float64
        assert np.array_equal(rho.view(np.uint64), expected.view(np.uint64))


def test_density_invariants_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = normalized_state(2, 1, rng.standard_normal(8))
        rho = density_of(psi)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12
        assert abs(np.vdot(rho, rho).real - 1.0) < 1e-12


# ---------------------------------------------------------- magnitude histogram


def unique_histogram(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    amps = np.asarray(amps).reshape(-1)
    values, counts = np.unique(np.abs(amps[amps != 0.0]), return_counts=True)
    return values, counts.astype(np.float64)


def test_magnitude_histogram_matches_unique_bit_for_bit():
    rng = np.random.default_rng(41)
    blocks = [
        rng.standard_normal((16, 8)),
        rng.integers(-3, 4, (32, 16)) * 0.1,  # few magnitudes, both signs, many zeros
        np.zeros((4, 4)),
        np.array([-0.0, 0.0, 0.25, -0.25]),
    ]
    for f in (random_two_to_one(5, 0b10110, 3), random_bijection(5, 3), random_two_to_one(8, 1, 8)):
        blocks += [psi.block for psi in run_stages(f).values()]
    for block in blocks:
        values, counts = magnitude_histogram(block)
        expected_values, expected_counts = unique_histogram(block)
        assert values.dtype == expected_values.dtype
        assert np.array_equal(values.view(np.uint64), expected_values.view(np.uint64))
        assert np.array_equal(counts, expected_counts)
        assert not values.flags.writeable and not counts.flags.writeable
    # the block itself is not modified by the in-place absolute value
    block = rng.integers(-3, 4, (8, 8)) * 0.1
    kept = block.copy()
    magnitude_histogram(block)
    assert np.array_equal(block, kept)


# ------------------------------------------------------------------------- eig


def test_hermitian_eig_diagonal():
    values, vectors = hermitian_eig(np.diag([0.25, 0.75]))
    assert np.allclose(values, [0.25, 0.75])
    assert np.allclose(np.abs(vectors), np.eye(2))


def test_hermitian_eig_maximally_coherent_qubit():
    values, _ = hermitian_eig(np.full((2, 2), 0.5))
    assert np.allclose(values, [0.0, 1.0], atol=1e-12)


def test_hermitian_eig_reconstructs_random_matrix():
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    herm = (raw + raw.conj().T) / 2
    values, vectors = hermitian_eig(herm)
    rebuilt = (vectors * values) @ vectors.conj().T
    assert np.abs(rebuilt - herm).max() < 1e-9
    assert np.all(np.diff(values) >= -1e-12)
    gram = vectors.conj().T @ vectors
    assert np.abs(gram - np.eye(8)).max() < 1e-9


def test_hermitian_eig_stays_real_on_real_symmetric_input():
    spectrum = [0.5, 0.25, 0.125, 0.125, 0.0, 0.0, 0.0, 0.0]
    rho = real_mixed_density(np.random.default_rng(19), spectrum)
    values, vectors = hermitian_eig(rho)
    assert values.dtype == np.float64
    assert vectors.dtype == np.float64
    assert np.abs(values - np.sort(spectrum)).max() < 1e-12
    rebuilt = (vectors * values) @ vectors.T
    assert np.abs(rebuilt - rho).max() < 1e-12
    complex_values, _ = hermitian_eig(rho.astype(complex))
    assert np.abs(values - complex_values).max() < 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------- matrix power


def test_matrix_power_rank_one_shortcut():
    rng = np.random.default_rng(2)
    amps = rng.standard_normal(16)
    real_rho = np.outer(amps, amps) / (amps @ amps)
    for rho in (random_pure_density(rng, 8), real_rho):
        for alpha in (0.3, 0.5, 1.7, 2.0):
            # a pure state is its own power: returned as-is, not copied
            assert matrix_power(rho, alpha) is rho


def test_matrix_power_diagonal_squares():
    assert np.allclose(matrix_power(np.diag([0.5, 0.5]), 2.0), np.diag([0.25, 0.25]))


def test_matrix_power_diagonal_square_root():
    # 0.25**0.5 = 0.5 and 0.75**0.5 = 0.8660254037844386
    result = matrix_power(np.diag([0.25, 0.75]), 0.5)
    assert np.allclose(result, np.diag([0.5, 0.8660254037844386]), atol=1e-12)


def test_matrix_power_matches_scipy_on_mixed_states():
    rng = np.random.default_rng(13)
    for dim in (2, 4, 8):
        # blend with the maximally mixed state: fractional powers of singular
        # matrices amplify eigenvalue noise, so the oracle needs rho > 0
        rho = 0.9 * random_mixed_density(rng, dim) + 0.1 * np.eye(dim) / dim
        for alpha in (0.3, 0.5, 1.5, 2.0):
            expected = fractional_matrix_power(rho, alpha)
            assert np.abs(matrix_power(rho, alpha) - expected).max() < 1e-9


def test_matrix_power_keeps_real_input_real():
    rho = real_mixed_density(np.random.default_rng(37), [0.4, 0.3, 0.2, 0.1])
    for alpha in (0.5, 2.0):
        powered = matrix_power(rho, alpha)
        assert powered.dtype == np.float64
        assert np.abs(powered - matrix_power(rho.astype(complex), alpha)).max() < 1e-12
        assert np.abs(powered - fractional_matrix_power(rho, alpha)).max() < 1e-9


def test_matrix_power_continuous_at_one():
    rng = np.random.default_rng(17)
    rho = random_mixed_density(rng, 8)
    assert np.abs(matrix_power(rho, 1.0 + 1e-6) - rho).max() < 1e-4


def test_matrix_power_floors_tiny_eigenvalues():
    powered = matrix_power(np.diag([0.6, 0.4, 0.0]), 0.5)
    assert np.allclose(powered, np.diag([0.6**0.5, 0.4**0.5, 0.0]))
    assert not np.isnan(powered).any()


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5, -0.3])
def test_matrix_power_rejects_out_of_range_alpha(alpha):
    with pytest.raises(ValueError):
        matrix_power(np.diag([0.5, 0.5]), alpha)


# --------------------------------------------------------------- distributions


def test_first_register_distribution_uniform():
    psi = hadamard_first_register(basis_state(2, 1, 0))
    assert np.allclose(first_register_distribution(psi), [0.25] * 4)
    assert np.allclose(second_register_distribution(psi), [1.0, 0.0])


def test_first_register_distribution_split_state():
    amps = np.zeros(8)
    amps[[0, 5]] = INV_SQRT2  # |0>|0> and |1>|01>
    psi = flat_state(1, 2, amps)
    assert np.allclose(first_register_distribution(psi), [0.5, 0.5])
    assert np.allclose(second_register_distribution(psi), [0.5, 0.5, 0.0, 0.0])


def test_first_register_distribution_matches_one_sum_bit_for_bit():
    # blocks of several squaring chunks, one not a whole number of them, and one column
    rng = np.random.default_rng(43)
    grid = rng.standard_normal((1024, 100))
    states = [StateVector(10, 7, np.arange(100), grid / np.linalg.norm(grid))]
    for f in (random_two_to_one(10, 0b1001101, 2), random_bijection(10, 2)):
        states += list(run_stages(f).values())
    for psi in states:
        expected = (np.abs(psi.block) ** 2).sum(axis=1)
        assert np.array_equal(first_register_distribution(psi).view(np.uint64), expected.view(np.uint64))


def test_column_weights_match_one_sum_bit_for_bit():
    # blocks of one squaring chunk or several, some rows not a whole number of
    # chunks, and one or two columns
    rng = np.random.default_rng(83)
    states = []
    for rows, width in ((2048, 100), (1024, 97), (32768, 3), (32768, 2), (8, 2), (65536, 1), (64, 1)):
        grid = rng.standard_normal((rows, width))
        states.append(StateVector(rows.bit_length() - 1, 7, np.arange(width), grid / np.linalg.norm(grid)))
    for f in (random_two_to_one(10, 0b1001101, 2), random_bijection(10, 2)):
        states.append(run_stages(f)[Stage.ORACLE])
    for psi in states:
        expected = (np.abs(psi.block) ** 2).sum(axis=0)
        weights = column_weights(psi)
        if psi.block.shape[1] == 1:
            # numpy sums a lone column pairwise, so only the value is pinned
            assert abs(weights[0] - expected[0]) <= 1e-14
        else:
            assert np.array_equal(weights.view(np.uint64), expected.view(np.uint64)), psi.block.shape


def test_distributions_sum_to_one():
    rng = np.random.default_rng(23)
    psi = normalized_state(2, 2, rng.standard_normal(16))
    assert abs(first_register_distribution(psi).sum() - 1.0) < 1e-12
    assert abs(second_register_distribution(psi).sum() - 1.0) < 1e-12


# ----------------------------------------------------- permutation invariance


def test_permutation_preserves_entry_magnitude_multiset():
    rng = np.random.default_rng(29)
    rho = random_mixed_density(rng, 8)
    perm = rng.permutation(8)
    permuted = rho[np.ix_(perm, perm)]
    original = np.sort(np.abs(rho).reshape(-1))
    relabeled = np.sort(np.abs(permuted).reshape(-1))
    assert np.abs(original - relabeled).max() < 1e-15
