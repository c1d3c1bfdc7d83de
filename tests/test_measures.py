import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import fractional_matrix_power

from conftest import (
    circuit_states,
    codes,
    flat_state,
    random_exact_state,
    random_mixed_density,
    real_mixed_density,
    states_with_zeros,
)
from simon_coherence import (
    DEFAULT_PANEL,
    FAMILIES,
    L1,
    REL_ENTROPY,
    SKEW_INFO,
    CoherenceMeasure,
    TOL,
    SimonFunction,
    Stage,
    StateVector,
    basis_state,
    dense_coherence,
    density_of,
    final_stage_coherence,
    hadamard_first_register,
    l1_coherence,
    l1p,
    l1p_coherence,
    oracle_apply,
    pure_state_coherence,
    random_bijection,
    random_two_to_one,
    relative_entropy_coherence,
    run_stages,
    skew_information_coherence,
    tsallis,
    tsallis_coherence,
)

# ground-truth values for rho = [[0.5, 0.25], [0.25, 0.5]] (eigenvalues 3/4, 1/4)
RHO_HALF_QUARTER = np.array([[0.5, 0.25], [0.25, 0.5]])
FROZEN_REL_ENTROPY = 0.18872187554086717
FROZEN_SKEW_INFO = 0.06698729810778103
FROZEN_TSALLIS_HALF = 0.13397459621556207
FROZEN_TSALLIS_TWO = 0.11803398874989468

ALL_KINDS_PANEL = DEFAULT_PANEL + (L1,)


def padded_state(k) -> StateVector:
    """A one-register state of the 2^e sign codes ``k`` zero-padded to a
    power-of-two length; the zeros leave every measure unchanged."""
    n = max(1, (len(k) - 1).bit_length())
    return flat_state(n, 0, np.pad(k, (0, (1 << n) - len(k))), len(k).bit_length() - 1)


def positive_density(rng, dim):
    # fractional powers of singular matrices are ill-conditioned; keep rho > 0
    return 0.9 * random_mixed_density(rng, dim) + 0.1 * np.eye(dim) / dim


# -------------------------------------------------------------- measure objects


def test_measure_labels_and_params():
    assert tsallis(0.5).label() == "tsallis(alpha=0.5)"
    assert l1p(2.0).label() == "l1p(p=2)"
    assert REL_ENTROPY.label() == "rel_entropy"
    assert SKEW_INFO.label() == "skew_info"
    assert L1.label() == "l1"
    assert tsallis(1.5).params_dict() == {"alpha": 1.5}
    assert l1p(1.3).params_dict() == {"p": 1.3}
    assert REL_ENTROPY.params_dict() == {}


def test_distinct_parameters_keep_distinct_labels():
    # g format prints all three as alpha=1, so run's config.measures named one measure three times
    labels = [tsallis(alpha).label() for alpha in (0.99999999, 1.00000001, 1.000001)]
    assert labels == ["tsallis(alpha=0.99999999)", "tsallis(alpha=1.00000001)", "tsallis(alpha=1.000001)"]


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5, -0.3])
def test_tsallis_measure_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        tsallis(alpha)


@pytest.mark.parametrize("p", [0.5, 2.1, 0.0, -1.0])
def test_l1p_measure_rejects_bad_p(p):
    with pytest.raises(ValueError):
        l1p(p)


def test_measure_construction_errors():
    with pytest.raises(ValueError):
        CoherenceMeasure("nope")
    with pytest.raises(ValueError):
        CoherenceMeasure("tsallis")
    with pytest.raises(ValueError):
        CoherenceMeasure("l1p")
    with pytest.raises(ValueError):
        CoherenceMeasure("l1", 1.0)


def test_default_panel_composition():
    assert [m.kind for m in DEFAULT_PANEL] == [
        "tsallis",
        "tsallis",
        "l1p",
        "l1p",
        "rel_entropy",
        "skew_info",
    ]
    assert [m.param for m in DEFAULT_PANEL[:4]] == [0.5, 2.0, 1.0, 2.0]


def test_families_table_drives_parameters():
    assert list(FAMILIES) == ["tsallis", "l1p", "rel_entropy", "skew_info", "l1"]
    for kind, family in FAMILIES.items():
        if family is None:
            assert CoherenceMeasure(kind).params_dict() == {}
            with pytest.raises(ValueError, match="takes no parameter"):
                CoherenceMeasure(kind, 1.5)
        else:
            name, _ = family
            assert CoherenceMeasure(kind, 1.5).params_dict() == {name: 1.5}
            assert CoherenceMeasure(kind, 1.5).label() == f"{kind}({name}=1.5)"
            with pytest.raises(ValueError, match=name):
                CoherenceMeasure(kind)
    assert FAMILIES["tsallis"][0] == "alpha" and FAMILIES["l1p"][0] == "p"


# ---------------------------------------------------------------- fixed values


def test_frozen_two_level_mixed_state():
    assert abs(relative_entropy_coherence(RHO_HALF_QUARTER) - FROZEN_REL_ENTROPY) < 1e-12
    assert abs(skew_information_coherence(RHO_HALF_QUARTER) - FROZEN_SKEW_INFO) < 1e-12
    assert abs(tsallis_coherence(RHO_HALF_QUARTER, 0.5) - FROZEN_TSALLIS_HALF) < 1e-12
    assert abs(tsallis_coherence(RHO_HALF_QUARTER, 2.0) - FROZEN_TSALLIS_TWO) < 1e-12
    assert l1_coherence(RHO_HALF_QUARTER) == 0.5
    # a single off-diagonal entry per column makes every p give the same norm
    for p in (1.0, 1.5, 2.0):
        assert abs(l1p_coherence(RHO_HALF_QUARTER, p) - 0.5) < 1e-12


def test_uniform_superposition_golden_values():
    psi = np.full(4, 0.5)
    rho = np.outer(psi, psi)
    assert abs(tsallis_coherence(rho, 0.5) - 1.5) < 1e-12
    assert abs(relative_entropy_coherence(rho) - 2.0) < 1e-12
    assert abs(skew_information_coherence(rho) - 0.75) < 1e-12
    assert abs(l1_coherence(rho) - 3.0) < 1e-12
    assert abs(l1p_coherence(rho, 2.0) - math.sqrt(3.0)) < 1e-12
    assert abs(l1p_coherence(rho, 1.0) - 3.0) < 1e-12


def test_basis_state_has_zero_coherence():
    rho = np.zeros((4, 4))
    rho[2, 2] = 1.0
    for measure in ALL_KINDS_PANEL:
        assert dense_coherence(rho, measure) == 0.0
        assert pure_state_coherence(flat_state(2, 0, [0, 0, 1, 0], 0), measure) == 0.0


def test_diagonal_mixed_states_have_zero_coherence():
    rng = np.random.default_rng(2)
    rho = np.diag(rng.dirichlet(np.ones(6)))
    for measure in ALL_KINDS_PANEL:
        assert dense_coherence(rho, measure) == 0.0


# --------------------------------------------------------- independent oracles


def test_tsallis_matches_fractional_power_oracle():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8):
        rho = positive_density(rng, dim)
        for alpha in (0.3, 0.5, 0.9, 1.1, 1.5, 2.0):
            powered = fractional_matrix_power(rho, alpha)
            diag = np.diag(powered).real
            expected = (np.sum(diag ** (1.0 / alpha)) - 1.0) / (alpha - 1.0)
            assert abs(tsallis_coherence(rho, alpha) - expected) < 1e-9


def test_lqp_norm_brute_force():
    # l1p_coherence is the l_{q,p} norm at q = 1 of rho with its diagonal removed
    rng = np.random.default_rng(23)
    rho = random_mixed_density(rng, 5)
    for p in (1.0, 1.5, 2.0):
        columns = [
            sum(abs(rho[i, j]) ** p for i in range(5) if i != j) ** (1.0 / p) for j in range(5)
        ]
        assert abs(l1p_coherence(rho, p) - sum(columns)) < 1e-12


def test_lqp_norm_rejects_exponents_below_one():
    rng = np.random.default_rng(23)
    rho = random_mixed_density(rng, 5)
    for p in (0.5, 2.5):
        with pytest.raises(ValueError):
            l1p_coherence(rho, p)


def test_relative_entropy_against_direct_spectrum():
    rng = np.random.default_rng(29)
    rho = positive_density(rng, 6)
    diag = np.diag(rho).real
    spectrum = np.linalg.eigvalsh(rho)
    expected = -(diag * np.log2(diag)).sum() + (spectrum * np.log2(spectrum)).sum()
    assert abs(relative_entropy_coherence(rho) - expected) < 1e-12


def test_skew_information_against_scipy_root():
    rng = np.random.default_rng(31)
    for dim in (2, 4, 8):
        rho = positive_density(rng, dim)
        root = fractional_matrix_power(rho, 0.5)
        expected = 1.0 - (np.diag(root).real ** 2).sum()
        assert abs(skew_information_coherence(rho) - expected) < 1e-9


# ------------------------------------------------------------------ reductions


def test_tsallis_half_is_twice_skew_information_on_mixed_states():
    rng = np.random.default_rng(37)
    for dim in (2, 3, 4, 8):
        rho = random_mixed_density(rng, dim)
        assert abs(tsallis_coherence(rho, 0.5) - 2.0 * skew_information_coherence(rho)) < 1e-9


def test_tsallis_near_one_delegates_to_relative_entropy():
    rng = np.random.default_rng(41)
    rho = random_mixed_density(rng, 4)
    target = math.log(2.0) * relative_entropy_coherence(rho)
    assert tsallis_coherence(rho, 1.0 + 5e-10) == target
    assert tsallis_coherence(rho, 1.0 - 5e-10) == target
    # just outside the delegation window the order-alpha value is continuous
    assert abs(tsallis_coherence(rho, 1.0 + 1e-6) - target) < 1e-4


def test_l1p_at_p_one_equals_l1():
    rng = np.random.default_rng(43)
    for dim in (2, 4, 8):
        rho = random_mixed_density(rng, dim)
        assert abs(l1p_coherence(rho, 1.0) - l1_coherence(rho)) < 1e-12


# ------------------------------------------------------------- dense vs direct


def test_pure_state_fast_path_matches_dense():
    rng = np.random.default_rng(47)
    measures = ALL_KINDS_PANEL + (tsallis(0.3), tsallis(1.1), l1p(1.5))
    for n_first, n_second in ((1, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (4, 4)):
        for _ in range(4):
            state = random_exact_state(rng, n_first, n_second)
            # the full outer product, zero rows and columns included
            rho = np.outer(state.amps, state.amps)
            for measure in measures:
                dense = dense_coherence(rho, measure)
                fast = pure_state_coherence(state, measure)
                assert abs(dense - fast) < 1e-9, measure.label()


def test_real_and_complex_dense_arithmetic_agree_on_the_final_stage():
    f = random_two_to_one(5, 0b10110, seed=3)
    rho = density_of(run_stages(f)[Stage.FINAL_HADAMARD])
    assert rho.dtype == np.float64
    as_complex = rho.astype(complex)
    for measure in ALL_KINDS_PANEL:
        real_value = dense_coherence(rho, measure)
        complex_value = dense_coherence(as_complex, measure)
        assert abs(real_value - complex_value) < TOL.cross_method, measure.label()


def test_real_and_complex_dense_arithmetic_agree_on_a_known_spectrum():
    spectrum = [0.5, 0.25, 0.125, 0.125, 0.0, 0.0, 0.0, 0.0]
    rho = real_mixed_density(np.random.default_rng(59), spectrum)
    diag = np.diag(rho)
    expected_rel_entropy = -(diag * np.log2(diag)).sum() - 1.75
    assert abs(relative_entropy_coherence(rho) - expected_rel_entropy) < 1e-12
    as_complex = rho.astype(complex)
    for measure in ALL_KINDS_PANEL + (tsallis(0.3), tsallis(1.7), l1p(1.5)):
        real_value = dense_coherence(rho, measure)
        complex_value = dense_coherence(as_complex, measure)
        assert abs(real_value - complex_value) < TOL.cross_method, measure.label()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=8))
def test_hypothesis_pure_l1_routes_agree(codes):
    # codes +1 fill the support up to the next power of two
    state = padded_state(codes + [1] * ((1 << (len(codes) - 1).bit_length()) - len(codes)))
    rho = np.outer(state.amps, state.amps)
    fast = pure_state_coherence(state, L1)
    assert abs(fast - l1_coherence(rho)) < 1e-9
    assert abs(fast - pure_state_coherence(state, l1p(1.0))) < 1e-9


# ------------------------------------------------------------- support size


def ulps_from(value: float, exact: Fraction) -> float:
    """Distance of ``value`` from ``exact`` in units in the last place of ``exact``."""
    if exact == 0:
        return 0.0 if value == 0.0 else math.inf
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


@pytest.mark.parametrize("n", range(1, 8))
def test_pure_l1_and_skew_info_are_within_ulps_of_exact_values(n):
    for psi in circuit_states(n):
        # the amplitudes k 2^(-e/2) give rational l1 = ((sum |k|)^2 - sum k^2) / 2^e
        # and skew_info = 1 - sum k^4 / 2^(2e)
        nonzero = [int(k) for k in codes(psi).reshape(-1) if k != 0]
        exact_l1 = Fraction(sum(map(abs, nonzero)) ** 2 - sum(k * k for k in nonzero), 1 << psi.e)
        exact_skew = 1 - Fraction(sum(k**4 for k in nonzero), 1 << 2 * psi.e)
        assert ulps_from(pure_state_coherence(psi, L1), exact_l1) <= 0.5
        assert ulps_from(pure_state_coherence(psi, SKEW_INFO), exact_skew) <= 0.5


def test_pure_route_reads_the_support_of_the_occupied_columns():
    psi = run_stages(random_two_to_one(4, 0b1010, 6))[Stage.FINAL_HADAMARD]
    # the norm check counts the support once, on the codes of the occupied
    # columns: the final stage's 16 x 8 block rather than all 256 amplitudes
    assert codes(psi).shape == (16, 8) and vars(psi)["support"] == 64 and psi.unit == 0.125
    values = [pure_state_coherence(psi, measure) for measure in ALL_KINDS_PANEL]
    # the state of the full flat code vector has the same support, so the same values
    grid = np.zeros((16, 16), dtype=np.int8)
    grid[:, psi.columns] = codes(psi)
    full = flat_state(4, 4, grid, psi.e)
    assert values == [pure_state_coherence(full, measure) for measure in ALL_KINDS_PANEL]


def test_pure_route_reads_the_simulated_amplitudes():
    n = 4
    good = random_two_to_one(n, 0b1011, 9)
    table = good.table.copy()
    # f(3) leaves the image set, so 3 and 3 ^ s no longer share a column
    table[3] = np.setdiff1d(np.arange(1 << n), table)[0]
    broken = SimonFunction(n, table, good.s)
    with pytest.raises(ValueError):
        run_stages(broken)
    # the preimage sets of f(3) and of the new image hold one input beside sets
    # of two, so the oracle's output does not factor and no state is built
    with pytest.raises(ValueError, match="factor"):
        oracle_apply(hadamard_first_register(basis_state(n, n)), broken)
    closed = final_stage_coherence(1 << n, L1)
    intact = run_stages(good)[Stage.FINAL_HADAMARD]
    assert abs(pure_state_coherence(intact, L1) - closed) < TOL.cross_method


# --------------------------------------- dense relative entropy on the support


def full_spectrum_rel_entropy(rho: np.ndarray) -> float:
    """S(diag rho) - S(rho) from eigvalsh on the whole matrix, with the eigenvalue floor."""
    def bits(weights):
        kept = weights[weights > TOL.eigenvalue_floor]
        return float(-(kept * np.log2(kept)).sum())
    return bits(np.diag(rho).real) - bits(np.linalg.eigvalsh(rho))


def record_eigvalsh_shapes(monkeypatch) -> list:
    shapes = []
    original = np.linalg.eigvalsh

    def recording(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


@pytest.mark.parametrize("field", ["real", "complex"])
def test_relative_entropy_ignores_inserted_zero_rows_and_columns(field):
    rng = np.random.default_rng(61 if field == "real" else 67)
    for dim in range(2, 8):
        if field == "real":
            rho = real_mixed_density(rng, rng.dirichlet(np.ones(dim)))
        else:
            rho = random_mixed_density(rng, dim, terms=dim)
        base = relative_entropy_coherence(rho)
        assert abs(base - full_spectrum_rel_entropy(rho)) < 1e-12
        for extra in (1, 3, 6):
            padded = np.zeros((dim + extra, dim + extra), dtype=rho.dtype)
            keep = np.sort(rng.choice(dim + extra, size=dim, replace=False))
            padded[np.ix_(keep, keep)] = rho
            assert abs(relative_entropy_coherence(padded) - base) < 1e-12
            assert abs(full_spectrum_rel_entropy(padded) - base) < 1e-12


def full_matrix_l1p(rho: np.ndarray, p: float) -> float:
    """The l_{1,p} formula on the whole matrix: every column's l_p norm off the diagonal."""
    mags = np.abs(rho)
    np.fill_diagonal(mags, 0.0)
    return float(((mags**p).sum(axis=0) ** (1.0 / p)).sum())


@pytest.mark.parametrize("field", ["real", "complex"])
def test_l1p_ignores_inserted_zero_rows_and_columns_bit_for_bit(field):
    rng = np.random.default_rng(71 if field == "real" else 73)
    for dim in range(2, 8):
        if field == "real":
            rho = real_mixed_density(rng, rng.dirichlet(np.ones(dim)))
        else:
            rho = random_mixed_density(rng, dim, terms=dim)
        for extra in (0, 1, 3, 6):
            padded = np.zeros((dim + extra, dim + extra), dtype=rho.dtype)
            keep = np.sort(rng.choice(dim + extra, size=dim, replace=False))
            padded[np.ix_(keep, keep)] = rho
            for p in (1.0, 1.3, 1.5, 2.0):
                assert l1p_coherence(padded, p) == full_matrix_l1p(padded, p), (dim, extra, p)


@pytest.mark.parametrize("entry", [0.1, 0.1j])
def test_index_with_only_a_lower_triangle_entry_stays_in_the_eigen_problem(monkeypatch, entry):
    # row 1 is zero, column 1 holds rho[2, 1]; index 3 is zero in both
    rho = np.zeros((4, 4), dtype=type(entry))
    rho[0, 0] = rho[2, 2] = 0.5
    rho[2, 1] = entry
    expected = full_spectrum_rel_entropy(rho)
    shapes = record_eigvalsh_shapes(monkeypatch)
    value = relative_entropy_coherence(rho)
    assert shapes == [(4, 4)]
    assert abs(value - expected) < 1e-12
    # dropping index 1 would leave diag(1/2, 1/2), whose value is 0
    assert expected > 1e-3


def test_dense_rel_entropy_eigen_problems_cover_only_the_support(monkeypatch):
    shapes = record_eigvalsh_shapes(monkeypatch)
    for psi in circuit_states(3):
        relative_entropy_coherence(density_of(psi))
    sizes = [shape[0] for shape in shapes]
    assert all(shape == (size, size) for shape, size in zip(shapes, sizes))
    # initial, Hadamard, oracle, final, post-measure: two-to-one f, then a bijection
    assert sizes == [1, 8, 8, 16, 4] + [1, 8, 8, 64, 8]


def full_density(psi) -> np.ndarray:
    return np.outer(psi.amps, psi.amps.conj())


@pytest.mark.parametrize(
    "states",
    [pytest.param(partial(circuit_states, n), id=str(n)) for n in range(1, 6)]
    + [pytest.param(partial(states_with_zeros, 89), id="zeros")],
)
def test_dense_measures_on_the_support_match_the_full_matrix(states):
    measures = ALL_KINDS_PANEL + (tsallis(1.5), l1p(1.5))
    for psi in states():
        rho = density_of(psi)
        full = full_density(psi)
        assert rho.shape[0] == np.count_nonzero(psi.amps)
        for measure in measures:
            assert abs(dense_coherence(rho, measure) - dense_coherence(full, measure)) < 1e-12, measure.label()


@pytest.mark.parametrize("n", range(1, 6))
def test_dense_rel_entropy_matches_the_pure_route_at_every_stage(n):
    for psi in circuit_states(n):
        dense = relative_entropy_coherence(density_of(psi))
        assert abs(dense - pure_state_coherence(psi, REL_ENTROPY)) < TOL.cross_method


# ------------------------------------------------------------------ invariance


def test_basis_permutation_leaves_all_measures_fixed():
    rng = np.random.default_rng(53)
    rho = random_mixed_density(rng, 8)
    perm = rng.permutation(8)
    shuffled = rho[np.ix_(perm, perm)]
    for measure in ALL_KINDS_PANEL + (tsallis(1.7), l1p(1.2)):
        before = dense_coherence(rho, measure)
        after = dense_coherence(shuffled, measure)
        assert abs(before - after) < 1e-9, measure.label()


def test_values_are_never_negative_zero():
    basis = flat_state(1, 0, [1, 0], 0)
    # an order below 1 divides 0 by a negative number at support 1
    for measure in ALL_KINDS_PANEL + (tsallis(0.001), tsallis(0.5), tsallis(2.0)):
        value = pure_state_coherence(basis, measure)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0, measure.label()
