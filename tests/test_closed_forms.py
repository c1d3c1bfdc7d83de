import math

import numpy as np
import pytest

from simon_coherence import (
    DEFAULT_PANEL,
    L1,
    REGIME_DEPLETION,
    REGIME_NEUTRAL,
    REGIME_PRODUCTION,
    Stage,
    classify_regime,
    coherence_delta,
    dense_coherence,
    density_of,
    final_stage_coherence,
    final_stage_l1_candidates,
    hadamard_stage_coherence,
    l1p,
    run_stages,
    support,
    tsallis,
    uniform_superposition_coherence,
)
from simon_coherence.tolerances import MAX_ORACLE_BITS

SPOT_CHECK_MEASURES = DEFAULT_PANEL + (L1, tsallis(0.3), tsallis(1.3), l1p(1.5))


# ------------------------------------------------------------- fixed values


def test_hadamard_stage_known_values():
    assert hadamard_stage_coherence(4, tsallis(0.5)) == 1.5
    assert hadamard_stage_coherence(4, DEFAULT_PANEL[4]) == 2.0  # rel_entropy
    assert hadamard_stage_coherence(4, DEFAULT_PANEL[5]) == 0.75  # skew_info
    assert hadamard_stage_coherence(4, L1) == 3.0
    assert hadamard_stage_coherence(8, L1) == 7.0
    assert hadamard_stage_coherence(8, DEFAULT_PANEL[5]) == 0.875
    assert abs(hadamard_stage_coherence(8, l1p(2.0)) - math.sqrt(7.0)) < 1e-15


def test_final_stage_known_values():
    assert final_stage_coherence(4, L1) == 3.0
    assert final_stage_coherence(8, L1) == 15.0
    assert final_stage_coherence(8, DEFAULT_PANEL[4]) == 4.0
    assert final_stage_coherence(8, DEFAULT_PANEL[5]) == 0.9375
    assert final_stage_coherence(4, DEFAULT_PANEL[4]) == 2.0
    assert abs(final_stage_coherence(8, l1p(2.0)) - math.sqrt(15.0)) < 1e-15


def test_worked_example_deltas_at_eight():
    assert coherence_delta(8, DEFAULT_PANEL[5]) == 0.9375 - 0.875  # 1/16
    assert coherence_delta(8, DEFAULT_PANEL[4]) == 1.0
    assert coherence_delta(8, L1) == 8.0


def test_uniform_superposition_rejects_bad_support():
    with pytest.raises(ValueError):
        uniform_superposition_coherence(0, L1)
    with pytest.raises(ValueError):
        uniform_superposition_coherence(-4, L1)


@pytest.mark.parametrize("dim", [0, 1, 3, 6, 2**21])
def test_stage_forms_reject_bad_dimensions(dim):
    with pytest.raises(ValueError):
        hadamard_stage_coherence(dim, L1)
    with pytest.raises(ValueError):
        final_stage_coherence(dim, L1)
    with pytest.raises(ValueError):
        final_stage_l1_candidates(dim)


# --------------------------------------------------- internal cross-checks


@pytest.mark.parametrize("alpha", [2.0**-10, 1e-3, 1e-300, 5e-324])
def test_tsallis_closed_forms_stay_finite_at_small_alpha(alpha):
    for n in range(1, 21):
        dim = 1 << n
        assert math.isfinite(final_stage_coherence(dim, tsallis(alpha))), n
        assert math.isfinite(coherence_delta(dim, tsallis(alpha))), n


def test_tsallis_delta_explicit_expression():
    """Delta for the Tsallis family written out once more, independently."""
    for n in range(1, 11):
        dim = 1 << n
        for alpha in (0.3, 0.5, 0.9, 1.1, 1.5, 2.0):
            e = 1.0 - 1.0 / alpha
            expected = ((dim * dim / 4.0) ** e - dim**e) / (alpha - 1.0)
            got = coherence_delta(dim, tsallis(alpha))
            assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)


def test_rel_entropy_delta_is_exact_log():
    # log2(N^2/4) - log2(N) = log2(N / 4): exact in floats for powers of two
    for n in range(1, 21):
        dim = 1 << n
        assert coherence_delta(dim, DEFAULT_PANEL[4]) == float(n - 2)


def test_dense_simulation_agrees_with_closed_forms(f_three_qubit):
    stages = run_stages(f_three_qubit)
    for measure in SPOT_CHECK_MEASURES:
        want_h = hadamard_stage_coherence(8, measure)
        want_f = final_stage_coherence(8, measure)
        got_h = dense_coherence(density_of(stages[Stage.HADAMARD]), measure)
        got_f = dense_coherence(density_of(stages[Stage.FINAL_HADAMARD]), measure)
        assert abs(got_h - want_h) < 1e-9, measure.label()
        assert abs(got_f - want_f) < 1e-9, measure.label()


def test_support_table_gives_each_stage_its_closed_form():
    n, dim = 3, 8
    # stage: (support for a nonzero mask, support for a bijection)
    table = {
        Stage.INITIAL: (1, 1),
        Stage.HADAMARD: (dim, dim),
        Stage.ORACLE: (dim, dim),
        Stage.POST_MEASURE: (dim // 2, dim),
        Stage.FINAL_HADAMARD: (dim * dim // 4, dim * dim),
    }
    for stage, (paired, bijective) in table.items():
        assert support(stage, n, 0b110) == paired, stage
        assert support(stage, n, 0) == bijective, stage
    for measure in SPOT_CHECK_MEASURES:
        at = {stage: uniform_superposition_coherence(support(stage, n, 0b110), measure) for stage in table}
        assert at[Stage.INITIAL] == 0.0
        assert at[Stage.HADAMARD] == at[Stage.ORACLE] == hadamard_stage_coherence(dim, measure)
        assert at[Stage.FINAL_HADAMARD] == final_stage_coherence(dim, measure)
        assert at[Stage.POST_MEASURE] == hadamard_stage_coherence(dim // 2, measure)


@pytest.mark.parametrize("n", [0, MAX_ORACLE_BITS + 1])
def test_support_table_rejects_bad_register_sizes(n):
    with pytest.raises(ValueError):
        support(Stage.HADAMARD, n, 0)


# ------------------------------------------------------------ l1 candidates


def test_l1_candidate_values():
    assert final_stage_l1_candidates(4) == {"quarter_form": 3.0, "half_form": 7.0}
    assert final_stage_l1_candidates(8) == {"quarter_form": 15.0, "half_form": 31.0}


def test_dense_l1_refutes_half_form(f_two_qubit, f_three_qubit):
    for f, dim in ((f_two_qubit, 4), (f_three_qubit, 8)):
        rho = density_of(run_stages(f)[Stage.FINAL_HADAMARD])
        measured = dense_coherence(rho, L1)
        candidates = final_stage_l1_candidates(dim)
        assert abs(measured - candidates["quarter_form"]) < 1e-9
        assert abs(measured - candidates["half_form"]) > 1.0


def test_final_stage_l1_uses_quarter_form():
    for n in range(1, 11):
        dim = 1 << n
        assert final_stage_coherence(dim, L1) == final_stage_l1_candidates(dim)["quarter_form"]


# ---------------------------------------------------------------- regimes


def test_regime_thresholds():
    assert classify_regime(2).regime == REGIME_DEPLETION
    assert classify_regime(4).regime == REGIME_NEUTRAL
    for n in range(3, MAX_ORACLE_BITS + 1):
        assert classify_regime(1 << n).regime == REGIME_PRODUCTION


def test_neutral_dimension_deltas_are_exactly_zero():
    verdict = classify_regime(4)
    assert set(verdict.deltas) == set(DEFAULT_PANEL)
    for measure, delta in verdict.deltas.items():
        assert delta == 0.0, measure.label()


def test_depletion_deltas_are_negative():
    verdict = classify_regime(2)
    for delta in verdict.deltas.values():
        assert delta < 0.0


def test_delta_sign_flips_only_at_four():
    for measure in SPOT_CHECK_MEASURES:
        assert coherence_delta(2, measure) < 0.0, measure.label()
        assert coherence_delta(4, measure) == 0.0, measure.label()
        for n in range(3, MAX_ORACLE_BITS + 1):
            assert coherence_delta(1 << n, measure) > 0.0, measure.label()
