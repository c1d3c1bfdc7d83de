import math
from fractions import Fraction

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
from simon_coherence import states
from conftest import (
    circuit_states,
    flat_state,
    random_codes,
    random_exact_state,
    random_mixed_density,
    random_pure_density,
    real_mixed_density,
    second_register_distribution,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------- construction


def test_state_vector_rejects_wrong_length():
    one = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match="base"):
        StateVector(1, 1, one, np.array([1, 0, 0, 0], dtype=np.int8), one, 0)
    with pytest.raises(ValueError, match="offsets"):
        StateVector(1, 1, one, np.array([1, 0], dtype=np.int8), np.zeros(2, dtype=np.int64), 0)
    # an offset is a first-register value, so it has n_first bits
    for offset in (2, -1):
        with pytest.raises(ValueError, match="offsets"):
            StateVector(1, 1, one, np.array([1, 0], dtype=np.int8), np.array([offset]), 0)


def test_state_vector_rejects_unnormalized():
    # the norm is the integer identity support = 2^e, with no tolerance
    for k, e in (([1, 1], 0), ([1, 1], 2), ([1, 1, 1, 0], 1), ([1, 1, 1, 0], 2), ([1, 1, 1, 1], 3),
                 ([1, 0], -1), ([0, 0], 0)):
        with pytest.raises(ValueError, match="normalized"):
            flat_state(2, 0, np.pad(k, (0, 4 - len(k))), e)
    assert flat_state(2, 0, [1, 1, 1, 1], 2).amps.tolist() == [0.5] * 4


def test_state_vector_norm_is_its_support():
    # every nonzero code is +-1, so sum k^2 is the count of them, made once by the check
    for k in ([1, -1, 0, 0, 1, 1, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0], [-1] * 8):
        psi = flat_state(3, 0, k, int(np.count_nonzero(k)).bit_length() - 1)
        assert vars(psi)["support"] == np.count_nonzero(k) == 1 << psi.e


def test_state_vector_rejects_codes_outside_the_code_set():
    # 2, -2, 2 + 1 + 1 + 1 + 1, 4, -4 and 3 + 2 + 1 + 1 + 1 have sum k^2 = 2^e,
    # so only the code check can fail them
    for k, e in (([2, 0, 0, 0], 2), ([-2, 0, 0, 0], 2), ([2, 1, 1, 1, 1], 3), ([2, 2, 2, 2], 4),
                 ([4, 0, 0, 0], 4), ([-4, 0, 0, 0], 4), ([3, 2, 1, 1, 1], 4),
                 ([127, 0, 0, 0], 0), ([-128, 0, 0, 0], 0)):
        with pytest.raises(ValueError, match="codes"):
            flat_state(3, 0, np.pad(k, (0, 8 - len(k))), e)


def test_state_vector_rejects_empty_registers():
    one = np.zeros(1, dtype=np.intp)
    with pytest.raises(ValueError):
        StateVector(0, 0, one, np.ones(1, dtype=np.int8), one, 0)


def test_state_vector_holds_only_contiguous_int8_blocks():
    # one int8 base column, kept and made read-only with the columns and offsets
    base = np.array([1, 1], dtype=np.int8)
    columns, offsets = np.arange(2), np.array([0, 1])
    psi = StateVector(1, 1, columns, base, offsets, 2)
    assert psi.base is base and psi.columns is columns and psi.offsets is offsets
    assert not (base.flags.writeable or columns.flags.writeable or offsets.flags.writeable)
    assert psi.k.dtype == np.int8 and psi.k.flags.c_contiguous and psi.k.shape == (2, 2)
    block = np.array([1, 1], dtype=np.int8)
    for bad, named in ((block.astype(np.float64), "float64"), (block.astype(np.int16), "int16"),
                       (block.astype(np.uint8), "uint8"), (block.reshape(2, 1), r"\(2, 1\)")):
        with pytest.raises(ValueError, match=named):
            StateVector(1, 1, columns, bad, offsets, 2)


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
    psi = random_exact_state(np.random.default_rng(seed), n1, n2)
    once = hadamard_first_register(psi)
    assert abs(np.linalg.norm(once.amps) - 1.0) < 1e-12
    twice = hadamard_first_register(once)
    # integer butterflies: the amplitudes come back bit for bit
    assert np.array_equal(twice.amps, psi.amps)


def test_hadamard_rejects_a_column_whose_butterflies_could_wrap_int8(monkeypatch):
    # one column of 128 codes +-1: its butterfly values, up to 128 in magnitude,
    # would wrap in int8; in int32 they fail the code set before any cast
    # back to int8, so no output state is built
    rng = np.random.default_rng(5)
    built = []
    base = rng.choice([-1, 1], 128).astype(np.int8)
    psi = StateVector(7, 1, np.arange(1), base, np.array([1]), 7)
    kept = base.copy()
    with monkeypatch.context() as patched:
        patched.setattr(states, "StateVector", lambda *args: built.append(args))
        with pytest.raises(ValueError, match="codes"):
            hadamard_first_register(psi)
    assert np.array_equal(psi.base, kept)
    assert not built
    # a column of 2^7, 2^15 or 2^20 codes +1 is the Hadamard image of |0>, and
    # the layer maps it back there, the one butterfly value 2^n_first included
    for n_first in (7, 15, 20):
        column = np.ones(1 << n_first, dtype=np.int8)
        lone = StateVector(n_first, 0, np.arange(1), column, np.zeros(1, dtype=int), n_first)
        back = hadamard_first_register(lone)
        assert back.e == 0 and back.base.dtype == np.int8
        assert np.array_equal(np.flatnonzero(back.base), [0]) and back.base[0] == 1


def test_hadamard_rejects_columns_of_unequal_mass():
    # every column of a state holds its base's count of codes, so a column of
    # two codes beside a column of one cannot be built at all
    k = np.array([[1, 1, 1], [0, 0, -1], [0, 0, 0], [0, 0, 0]], dtype=np.int8)
    with pytest.raises(ValueError, match="factor"):
        flat_state(2, 2, np.pad(k, ((0, 0), (0, 1))), 2)
    # a base of four codes off a coset leaves codes of magnitude 2 and 1: no
    # common factor 2 is left to move into e
    off_coset = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=np.int8)
    with pytest.raises(ValueError, match="codes"):
        hadamard_first_register(flat_state(3, 0, off_coset, 2))
    # with both columns of mass two, the factor 2 moves into e and signs remain
    even = np.array([[1, 1], [0, 0], [1, -1], [0, 0]], dtype=np.int8)
    assert hadamard_first_register(flat_state(2, 1, even, 2)).support == 4


# --------------------------------------------------------------------- density


def test_density_of_basis_state():
    rho = density_of(basis_state(1, 0, 0))
    assert np.array_equal(rho, [[1.0]])


def test_density_of_plus_state():
    rho = density_of(flat_state(1, 0, [1, 1], 1))
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
        psi = random_exact_state(rng, 2, 1)
        rho = density_of(psi)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12
        assert abs(np.vdot(rho, rho).real - 1.0) < 1e-12


# ---------------------------------------------------------------- sign blocks


def sign_codes(rng: np.random.Generator, rows: int, width: int, ones: int) -> np.ndarray:
    """A rows x width int8 block with ``ones`` codes +-1 at random places."""
    k = np.zeros(rows * width, dtype=np.int8)
    k[rng.choice(k.size, ones, replace=False)] = rng.choice([-1, 1], ones)
    return k.reshape(rows, width)


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
    k = np.zeros(8, dtype=np.int8)
    k[[0, 5]] = 1  # |0>|0> and |1>|01>
    psi = flat_state(1, 2, k, 1)
    assert np.array_equal(first_register_distribution(psi), [0.5, 0.5])
    assert np.array_equal(second_register_distribution(psi), [0.5, 0.5, 0.0, 0.0])


def exact_sums(psi: StateVector, axis: int) -> np.ndarray:
    """sum k^2 2^-e along ``axis`` as Python integers over a power of two, rounded once."""
    squares = (psi.k.astype(np.int64) ** 2).sum(axis=axis)
    return np.array([float(Fraction(int(total), 1 << psi.e)) for total in squares])


def exact_distribution_states():
    """Random factored sign patterns with one or many columns, in both forms,
    and the circuit's stages at n = 10."""
    rng = np.random.default_rng(43)
    states = []
    for rows, width, ones in ((1024, 128, 1 << 16), (2048, 4, 1 << 12), (64, 1, 64), (8, 2, 16),
                              (65536, 1, 1 << 12)):
        base = sign_codes(rng, rows, 1, ones // width).reshape(-1)
        offsets = rng.integers(0, rows, width)
        for phase in (False, True):
            states.append(StateVector(rows.bit_length() - 1, (width - 1).bit_length(), np.arange(width), base,
                                      offsets, ones.bit_length() - 1, phase))
    for f in (random_two_to_one(10, 0b1001101, 2), random_bijection(10, 2)):
        states += list(run_stages(f).values())
    return states


def test_first_register_distribution_matches_one_sum_bit_for_bit():
    # integer sums are exact in any order, so each probability is k^2 2^-e rounded once
    for psi in exact_distribution_states():
        probs = first_register_distribution(psi)
        assert np.array_equal(probs.view(np.uint64), exact_sums(psi, 1).view(np.uint64))
        if psi.e % 2 == 0:
            # the amplitudes are exact too, so summing their float squares agrees
            grid = psi.amps.reshape(1 << psi.n_first, -1)
            assert np.array_equal(probs, (grid**2).sum(axis=1))


def test_distributions_sum_to_one():
    rng = np.random.default_rng(23)
    for _ in range(20):
        psi = random_exact_state(rng, 2, 2)
        assert first_register_distribution(psi).sum() == 1.0
        assert second_register_distribution(psi).sum() == 1.0


@pytest.mark.parametrize("n", range(1, 13))
def test_every_circuit_stage_holds_int8_codes_with_sum_of_squares_two_to_the_e(n):
    for psi in circuit_states(n):
        assert psi.k.dtype == np.int8
        assert int(np.add.reduce(psi.k * psi.k, axis=None, dtype=np.int64)) == 1 << psi.e
        assert "amps" not in vars(psi)


# ----------------------------------------------------- permutation invariance


def test_permutation_preserves_entry_magnitude_multiset():
    rng = np.random.default_rng(29)
    rho = random_mixed_density(rng, 8)
    perm = rng.permutation(8)
    permuted = rho[np.ix_(perm, perm)]
    original = np.sort(np.abs(rho).reshape(-1))
    relabeled = np.sort(np.abs(permuted).reshape(-1))
    assert np.abs(original - relabeled).max() < 1e-15
