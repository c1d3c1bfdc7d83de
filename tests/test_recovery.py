import itertools

import numpy as np
import pytest
from scipy.stats import chisquare

from simon_coherence import (
    Gf2System,
    Stage,
    add_constraint,
    born_samples,
    first_register_distribution,
    random_bijection,
    random_two_to_one,
    recover,
    run_stages,
    solve_nullspace,
)
from conftest import dot_mod2


def brute_force_nullspace(n: int, rows) -> list[int]:
    return [
        x
        for x in range(1, 1 << n)
        if all(dot_mod2(x, row) == 0 for row in rows)
    ]


# -------------------------------------------------------------------- algebra


def test_empty_system():
    system = Gf2System(3)
    assert system.rank == 0
    assert solve_nullspace(system) == list(range(1, 8))


def test_system_rejects_zero_variables():
    with pytest.raises(ValueError):
        Gf2System(0)


def test_add_constraint_examples():
    system = Gf2System(3)
    system = add_constraint(system, 0b110)
    assert system.rank == 1
    # dependent and zero constraints change nothing
    assert add_constraint(system, 0b110).rows == system.rows
    assert add_constraint(system, 0).rows == system.rows
    system = add_constraint(system, 0b101)
    assert system.rank == 2
    assert solve_nullspace(system) == [0b111]


def test_add_constraint_range_check():
    with pytest.raises(ValueError):
        add_constraint(Gf2System(3), 8)
    with pytest.raises(ValueError):
        add_constraint(Gf2System(3), -1)


def test_rows_stay_reduced_with_unique_pivots():
    rng = np.random.default_rng(7)
    for n in (3, 5, 8):
        system = Gf2System(n)
        for y in rng.integers(0, 1 << n, size=40):
            system = add_constraint(system, int(y))
        pivots = [row & -row for row in system.rows]
        assert len(set(pivots)) == len(pivots)
        assert pivots == sorted(pivots)
        for row, pivot in zip(system.rows, pivots):
            for other in system.rows:
                if other != row:
                    assert not (other & pivot)


def test_nullspace_matches_brute_force():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 6):
        for _ in range(10):
            raw = [int(y) for y in rng.integers(0, 1 << n, size=rng.integers(0, n + 2))]
            system = Gf2System(n)
            for y in raw:
                system = add_constraint(system, y)
            assert solve_nullspace(system) == brute_force_nullspace(n, raw)


def test_full_rank_system_has_empty_nullspace():
    system = Gf2System(4)
    for y in (0b0001, 0b0010, 0b0100, 0b1000):
        system = add_constraint(system, y)
    assert system.rank == 4
    assert solve_nullspace(system) == []


# ------------------------------------------------------------------- sampling


def test_samples_always_satisfy_the_mask_constraint():
    """Forbidden outcomes carry exactly zero probability, not merely small."""
    f = random_two_to_one(4, 0b1011, seed=3)
    probs = first_register_distribution(run_stages(f)[Stage.FINAL_HADAMARD])
    for y in range(16):
        if dot_mod2(y, f.s) == 0:
            assert abs(probs[y] - 1.0 / 8.0) < 1e-12
        else:
            assert probs[y] == 0.0


def test_sample_distribution_is_uniform_on_the_orthogonal_set():
    f = random_two_to_one(4, 0b0110, seed=5)
    stages = run_stages(f)
    probs = first_register_distribution(stages[Stage.FINAL_HADAMARD])
    support = np.flatnonzero(probs > 0.0)
    rng = np.random.default_rng(17)
    draws = rng.choice(support, size=5000, p=probs[support] / probs[support].sum())
    assert all(dot_mod2(int(y), f.s) == 0 for y in draws)
    counts = [int((draws == y).sum()) for y in support]
    result = chisquare(counts)
    assert result.pvalue > 0.001


def full_grid_first_register_distribution(psi):
    """p[x] summed over every second-register column of the full grid, zeros included."""
    size = 1 << psi.n_first
    return (np.abs(psi.amps.reshape(size, -1)) ** 2).sum(axis=1)


@pytest.mark.parametrize("n", [9, 10, 11])
def test_block_row_sums_leave_the_sample_stream_unchanged(monkeypatch, n):
    # at odd n the row sums over occupied columns only can move p[x] by about 1e-19
    from simon_coherence import recovery

    for seed in range(5):
        s = int(np.random.default_rng(seed).integers(1, 1 << n))
        f = random_two_to_one(n, s, seed)
        with monkeypatch.context() as patched:
            patched.setattr(recovery, "first_register_distribution", full_grid_first_register_distribution)
            expected = recover(f, seed)
        got = recover(f, seed)
        assert (got.queries, got.s_hat) == (expected.queries, expected.s_hat)
        assert got.s_hat == s


@pytest.mark.parametrize("seed", range(8))
def test_block_sampler_draws_what_single_choice_calls_draw(seed):
    n = 1 + seed
    f = random_bijection(n, seed) if seed % 3 == 0 else random_two_to_one(n, (1 << n) - 1, seed)
    stages = run_stages(f)
    circuit = first_register_distribution(stages[Stage.FINAL_HADAMARD])
    uneven = np.random.default_rng(seed).random(37) * (np.arange(37) % 4 != 1)
    for probs in (circuit, uneven / uneven.sum()):
        support = np.flatnonzero(probs > 0.0)
        weights = probs[support] / probs[support].sum()
        rng = np.random.default_rng(seed + 100)
        expected = [int(support[rng.choice(support.size, p=weights)]) for _ in range(150)]
        # 150 samples span five blocks of doubles
        assert list(itertools.islice(born_samples(probs, np.random.default_rng(seed + 100)), 150)) == expected
    # integer weights draw what the same weights scaled by 2^-e draw
    oracle = stages[Stage.ORACLE]
    column_squares = np.add.reduce(oracle.k * oracle.k, axis=0, dtype=np.int32)
    counts = np.random.default_rng(seed).integers(0, 9, 37, dtype=np.int32)
    for weights, e in ((column_squares, oracle.e), (counts, 3 + seed)):
        integer, scaled = [list(itertools.islice(born_samples(w, np.random.default_rng(seed + 100)), 150))
                           for w in (weights, np.ldexp(weights, -e))]
        assert integer == scaled


# ------------------------------------------------------------------- recovery


def test_recover_worked_examples(f_two_qubit, f_three_qubit):
    report = recover(f_two_qubit, seed=0)
    assert report.s_hat == 0b11 and report.s_hat is not None
    report = recover(f_three_qubit, seed=0)
    assert report.s_hat == 0b110 and report.s_hat is not None
    assert report.rank == 2


def test_recover_single_bit_needs_no_queries():
    f = random_two_to_one(1, 1, seed=0)
    report = recover(f, seed=9)
    assert report == type(report)(1, 0, 0)


def test_recover_bijection_reports_zero_mask():
    f = random_bijection(3, seed=21)
    report = recover(f, seed=2)
    assert report.s_hat == 0
    assert report.s_hat is not None
    assert report.rank == 3


def test_recover_never_consults_the_declared_mask(f_three_qubit):
    # same table, same seed: the report is a function of (table, seed) only
    import simon_coherence as sc

    twin = sc.SimonFunction(3, f_three_qubit.table, f_three_qubit.s)
    assert recover(twin, seed=4) == recover(f_three_qubit, seed=4)


def test_recover_exhausts_budget_honestly():
    f = random_two_to_one(4, 0b1001, seed=1)
    report = recover(f, seed=1, max_queries=0)
    assert report.s_hat is None
    assert report.s_hat is None
    assert report.queries == 0


def test_recover_soundness_sweep():
    rng = np.random.default_rng(33)
    for n in (2, 3, 4, 5):
        for trial in range(8):
            s = int(rng.integers(1, 1 << n))
            f = random_two_to_one(n, s, int(rng.integers(2**31)))
            report = recover(f, int(rng.integers(2**31)))
            assert report.s_hat == s, (n, trial)
            assert report.s_hat is not None
            assert report.rank == n - 1


def test_recover_is_seed_deterministic():
    f = random_two_to_one(5, 0b10110, seed=8)
    assert recover(f, seed=123) == recover(f, seed=123)


def test_recover_query_counts_are_modest():
    rng = np.random.default_rng(39)
    totals = []
    for trial in range(50):
        f = random_two_to_one(6, 0b101101, int(rng.integers(2**31)))
        report = recover(f, int(rng.integers(2**31)))
        assert report.s_hat is not None
        totals.append(report.queries)
    assert max(totals) <= 6 + 20
    assert sum(totals) / len(totals) <= 6 + 3
