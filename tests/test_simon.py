import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simon_coherence import states
from simon_coherence import (
    FunctionTableError,
    SimonFunction,
    Stage,
    StateVector,
    basis_state,
    bits_to_int,
    born_samples,
    first_register_distribution,
    format_function_table,
    hadamard_first_register,
    int_to_bits,
    measure_second_register,
    oracle_apply,
    parse_function_table,
    random_bijection,
    random_two_to_one,
    run_stages,
    validate_function,
)
from simon_coherence.tolerances import MAX_ORACLE_BITS
from conftest import (
    dot_mod2,
    flat_state,
    parities,
    random_codes,
    random_factored_state,
    second_register_distribution,
)


def interference_expected(f: SimonFunction) -> np.ndarray:
    """Final-stage amplitudes built directly from the coset-sum expression."""
    n, size = f.n, 1 << f.n
    amps = np.zeros(size * size)
    weight = 1.0 / 2 ** (n - 1)
    # the smaller member x of each input pair {x, x ^ s}
    for x in (x for x in range(size) if x < x ^ f.s):
        for y in range(size):
            if dot_mod2(y, f.s) == 0:
                amps[(y << n) | f(x)] += (-1) ** dot_mod2(x, y) * weight
    return amps


# ----------------------------------------------------------------- bit helpers


def test_bit_string_round_trip():
    assert bits_to_int("110") == 6
    assert int_to_bits(6, 3) == "110"
    assert bits_to_int("0001") == 1
    with pytest.raises(ValueError):
        bits_to_int("10a")
    with pytest.raises(ValueError):
        bits_to_int("")


def test_dot_mod2():
    assert dot_mod2(0b110, 0b101) == 1
    assert dot_mod2(0b110, 0b110) == 0
    assert dot_mod2(0, 0b111) == 0


# ------------------------------------------------------------------- functions


def test_simon_function_validates_shape():
    with pytest.raises(ValueError):
        SimonFunction(2, [0, 1, 2], 1)
    with pytest.raises(ValueError):
        SimonFunction(2, [0, 1, 2, 4], 1)
    with pytest.raises(ValueError):
        SimonFunction(2, [0, 1, 2, 3], 4)
    # values that are not integers, or do not fit in int64, are not truncated or wrapped
    for table in ([0.9, 0.2], [2**63, 0], np.array([2**63, 0], dtype=np.uint64), [2**64, 0]):
        with pytest.raises(ValueError, match="n-bit integers"):
            SimonFunction(1, table, 1)


def test_random_two_to_one_smallest_case():
    f = random_two_to_one(1, 1, seed=0)
    assert f(0) == f(1)
    ok, why = validate_function(f)
    assert ok and why is None


@pytest.mark.parametrize("n,s", [(2, 0b11), (3, 0b110), (4, 0b1001)])
def test_random_two_to_one_pairs_inputs(n, s):
    f = random_two_to_one(n, s, seed=42)
    size = 1 << n
    for x in range(size):
        assert f(x) == f(x ^ s)
    assert len({f(x) for x in range(size)}) == size // 2
    ok, _ = validate_function(f)
    assert ok


def test_random_two_to_one_is_deterministic():
    first = random_two_to_one(4, 0b0110, seed=9)
    second = random_two_to_one(4, 0b0110, seed=9)
    assert np.array_equal(first.table, second.table)
    other = random_two_to_one(4, 0b0110, seed=10)
    assert not np.array_equal(first.table, other.table)


def test_random_two_to_one_rejects_zero_mask_and_bad_n():
    with pytest.raises(ValueError):
        random_two_to_one(3, 0, seed=0)
    with pytest.raises(ValueError):
        random_two_to_one(0, 1, seed=0)
    with pytest.raises(ValueError):
        random_two_to_one(21, 1, seed=0)


def test_random_bijection_is_a_permutation():
    f = random_bijection(3, seed=5)
    assert f.s == 0
    assert sorted(f.table.tolist()) == list(range(8))
    ok, _ = validate_function(f)
    assert ok


def test_validate_function_examples(f_two_qubit, f_three_qubit):
    assert validate_function(f_two_qubit) == (True, None)
    assert validate_function(f_three_qubit) == (True, None)


def test_validate_function_reports_first_violating_pair(f_two_qubit):
    wrong_mask = SimonFunction(2, f_two_qubit.table, 0b01)
    ok, why = validate_function(wrong_mask)
    assert not ok
    assert "f(00)" in why and "f(01)" in why


def test_validate_function_catches_non_disjoint_images():
    collapsed = SimonFunction(2, [0, 0, 0, 0], 0b11)
    ok, why = validate_function(collapsed)
    assert not ok
    assert "xor" in why


def test_validate_function_catches_fake_bijection():
    f = SimonFunction(2, [0, 1, 1, 2], 0)
    ok, why = validate_function(f)
    assert not ok
    assert "bijective" in why


def violates_mask(table, s: int, x: int, y: int) -> bool:
    """Whether inputs x, y break the rule f(x) = f(y) <=> y in {x, x xor s}."""
    return (table[x] == table[y]) != (y in (x, x ^ s))


@pytest.mark.parametrize("n", [1, 2])
def test_validate_function_matches_brute_force_on_every_small_table(n):
    size = 1 << n
    for table in itertools.product(range(size), repeat=size):
        for s in range(size):
            ok, why = validate_function(SimonFunction(n, table, s))
            pairs = list(itertools.product(range(size), repeat=2))
            assert ok == (not any(violates_mask(table, s, x, y) for x, y in pairs)), (table, s)
            if ok:
                assert why is None
                continue
            x, y = (int(bits, 2) for bits in re.findall(r"f\(([01]+)\)", why)[:2])
            assert violates_mask(table, s, x, y), (table, s, why)


def first_violation_by_sort(table: np.ndarray, s: int) -> tuple[int, int] | None:
    """The input pair ``validate_function`` names, found with a stable sort.

    The first x with f(x) != f(x ^ s) gives (x, x ^ s); otherwise equal values
    sit next to each other in a stable sort of the table, and the first such
    neighbours that do not differ by s are the pair.  None for a valid table.
    """
    if s:
        mismatched = np.flatnonzero(table != table[np.arange(table.size) ^ s])
        if mismatched.size:
            return int(mismatched[0]), int(mismatched[0]) ^ s
    order = np.argsort(table, kind="stable")
    values = table[order]
    clashes = np.flatnonzero((values[1:] == values[:-1]) & ((order[1:] ^ order[:-1]) != s))
    return (int(order[clashes[0]]), int(order[clashes[0] + 1])) if clashes.size else None


def near_valid_tables(rng: np.random.Generator, count: int):
    """(n, table, s) at n <= 6: random tables, mask-symmetric tables over few
    values, and permutations with a few entries overwritten."""
    for i in range(count):
        n = 1 + i % 6
        size = 1 << n
        s = int(rng.integers(0, size)) if i % 3 else 0
        if i % 4 == 0:
            table = rng.integers(0, size, size)
        elif i % 4 == 1 and s:
            xs = np.arange(size)
            reps = xs[xs < (xs ^ s)]
            table = np.empty(size, dtype=np.int64)
            table[reps] = table[reps ^ s] = rng.integers(0, max(1, size >> int(rng.integers(0, 3))), reps.size)
        else:
            table = rng.permutation(size)
            for _ in range(int(rng.integers(0, 3))):
                table[rng.integers(0, size)] = table[rng.integers(0, size)]
            if s:
                xs = np.arange(size)
                reps = xs[xs < (xs ^ s)]
                table[reps ^ s] = table[reps]
        yield n, table, s


def test_validate_function_names_the_pair_a_stable_sort_finds():
    seen = set()
    for n, table, s in near_valid_tables(np.random.default_rng(38), 4000):
        ok, why = validate_function(SimonFunction(n, table, s))
        expected = first_violation_by_sort(table, s)
        assert ok == (expected is None), (table, s, why)
        if not ok:
            named = tuple(int(bits, 2) for bits in re.findall(r"f\(([01]+)\)", why)[:2])
            assert named == expected, (table, s, why)
            seen.add("bijection" if s == 0 else "mismatch" if "expected f(x)" in why else "clash")
    assert seen == {"bijection", "mismatch", "clash"}


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_generated_oracles_always_validate(n, seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 1 << n))
    f = random_two_to_one(n, s, seed)
    assert validate_function(f) == (True, None)


# ---------------------------------------------------------------------- oracle


def test_oracle_apply_two_qubit_example(f_two_qubit):
    after_h = hadamard_first_register(basis_state(2, 2, 0))
    state = oracle_apply(after_h, f_two_qubit)
    expected = np.zeros(16)
    # (|00> + |11>)|00> / 2 + (|01> + |10>)|11> / 2
    expected[[0b0000, 0b1100]] = 0.5
    expected[[0b0111, 0b1011]] = 0.5
    assert np.abs(state.amps - expected).max() < 1e-12


def test_oracle_apply_three_qubit_example(f_three_qubit):
    after_h = hadamard_first_register(basis_state(3, 3, 0))
    state = oracle_apply(after_h, f_three_qubit)
    weight = 1.0 / (2.0 * math.sqrt(2.0))
    expected = np.zeros(64)
    for x in range(8):
        expected[(x << 3) | f_three_qubit(x)] = weight
    assert np.abs(state.amps - expected).max() < 1e-12


def repeating_column(rng: np.random.Generator, f: SimonFunction) -> StateVector:
    """A random one-column state whose codes repeat across the preimage sets of
    f: code c0[p] at x_v ^ p for each image v, with x_v the smallest input of
    value v and p in f^-1(f(0)), and c0 random signs and zeros on f^-1(f(0))."""
    size = 1 << f.n
    p0 = np.flatnonzero(f.table == f.table[0])
    c0 = np.zeros(size, dtype=np.int8)
    while not c0.any() or np.count_nonzero(c0) & (np.count_nonzero(c0) - 1):
        c0[p0] = rng.choice([-1, 0, 1], p0.size)
    smallest = {}
    for x in range(size):
        smallest.setdefault(f(x), x)
    xs = np.arange(size)
    base = c0[xs ^ np.array([smallest[f(x)] for x in range(size)])]
    e = (int(np.count_nonzero(c0)) * (size // p0.size)).bit_length() - 1
    return StateVector(f.n, f.n, np.array([int(rng.integers(size))]), base, np.zeros(1, dtype=int), e)


def test_oracle_apply_twice_is_identity(f_three_qubit):
    # the oracle is its own inverse: the reference oracle undoes the factored one
    rng = np.random.default_rng(31)
    for _ in range(10):
        psi = repeating_column(rng, f_three_qubit)
        once = oracle_apply(psi, f_three_qubit)
        assert np.array_equal(reference_oracle(once.amps, f_three_qubit), psi.amps)


def test_oracle_apply_preserves_magnitude_multiset(f_three_qubit):
    rng = np.random.default_rng(37)
    for _ in range(10):
        psi = repeating_column(rng, f_three_qubit)
        moved = oracle_apply(psi, f_three_qubit)
        assert moved.e == psi.e
        assert np.array_equal(np.sort(np.abs(psi.amps)), np.sort(np.abs(moved.amps)))


def test_oracle_apply_rejects_register_mismatch(f_two_qubit):
    with pytest.raises(ValueError):
        oracle_apply(basis_state(3, 3, 0), f_two_qubit)


# ---------------------------------------------------------------------- stages


def test_run_stages_two_qubit_final_state(f_two_qubit):
    stages = run_stages(f_two_qubit)
    expected = np.zeros(16)
    # (|00> + |11>)|00> / 2 + (|00> - |11>)|11> / 2
    expected[0b0000] = 0.5
    expected[0b1100] = 0.5
    expected[0b0011] = 0.5
    expected[0b1111] = -0.5
    assert np.abs(stages[Stage.FINAL_HADAMARD].amps - expected).max() < 1e-12


def test_run_stages_three_qubit_final_state(f_three_qubit):
    stages = run_stages(f_three_qubit)
    quarter = 0.25
    signs = {
        0b101: {0b000: +1, 0b001: +1, 0b110: +1, 0b111: +1},
        0b110: {0b000: +1, 0b111: +1, 0b001: -1, 0b110: -1},
        0b010: {0b000: +1, 0b110: +1, 0b001: -1, 0b111: -1},
        0b000: {0b000: +1, 0b001: +1, 0b110: -1, 0b111: -1},
    }
    expected = np.zeros(64)
    for image, per_y in signs.items():
        for y, sign in per_y.items():
            expected[(y << 3) | image] = sign * quarter
    assert np.abs(stages[Stage.FINAL_HADAMARD].amps - expected).max() < 1e-12


def test_run_stages_initial_and_hadamard(f_three_qubit):
    stages = run_stages(f_three_qubit)
    assert stages[Stage.INITIAL].amps[0] == 1.0
    hadamard = stages[Stage.HADAMARD].amps.reshape(8, 8)
    assert np.allclose(hadamard[:, 0], 1.0 / (2.0 * math.sqrt(2.0)))
    assert np.abs(hadamard[:, 1:]).max() == 0.0


def test_final_stage_matches_coset_sum_reconstruction():
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        for _ in range(3):
            s = int(rng.integers(1, 1 << n))
            f = random_two_to_one(n, s, int(rng.integers(2**31)))
            final = run_stages(f)[Stage.FINAL_HADAMARD]
            assert np.abs(final.amps - interference_expected(f)).max() < 1e-12


def test_final_stage_support_and_magnitude():
    for n, seed in ((2, 0), (3, 1), (4, 2), (5, 3)):
        s = (1 << n) - 1
        f = random_two_to_one(n, s, seed)
        final = run_stages(f)[Stage.FINAL_HADAMARD]
        mags = np.abs(final.amps)
        support = mags > 1e-12
        assert support.sum() == 4**n // 4
        assert np.allclose(mags[support], 2.0 / 2**n)


def test_run_stages_rejects_invalid_table():
    broken = SimonFunction(2, [0, 1, 2, 3], 0b11)
    with pytest.raises(ValueError):
        run_stages(broken)


# ----------------------------------------------------------------- measurement


def test_measurement_image_distribution_is_uniform(f_three_qubit):
    stages = run_stages(f_three_qubit)
    probs = second_register_distribution(stages[Stage.ORACLE])
    images = sorted({f_three_qubit(x) for x in range(8)})
    assert np.allclose(probs[images], 0.25)
    others = [z for z in range(8) if z not in images]
    assert np.abs(probs[others]).max() == 0.0


def test_measurement_collapses_to_input_pair(f_two_qubit):
    stages = run_stages(f_two_qubit)
    for seed in range(6):
        observed, collapsed = measure_second_register(stages[Stage.ORACLE], seed)
        assert observed in {f_two_qubit(x) for x in range(4)}
        pair = [x for x in range(4) if f_two_qubit(x) == observed]
        expected = np.zeros(16)
        for x in pair:
            expected[(x << 2) | observed] = 1.0 / math.sqrt(2.0)
        assert np.abs(collapsed.amps - expected).max() < 1e-12


def test_post_measure_state_matches_masked_transform(f_three_qubit):
    """H applied to the collapsed pair lands on the sign pattern (-1)^(x.y) over y.s=0."""
    stages = run_stages(f_three_qubit)
    for seed in range(4):
        observed, collapsed = measure_second_register(stages[Stage.ORACLE], seed)
        post = hadamard_first_register(collapsed)
        x = min(x for x in range(8) if f_three_qubit(x) == observed)
        expected = np.zeros(64)
        for y in range(8):
            if dot_mod2(y, f_three_qubit.s) == 0:
                expected[(y << 3) | observed] = (-1) ** dot_mod2(x, y) / 2.0
        assert np.abs(post.amps - expected).max() < 1e-12


def test_measurement_is_seed_deterministic(f_three_qubit):
    stages = run_stages(f_three_qubit)
    first = measure_second_register(stages[Stage.ORACLE], 123)
    second = measure_second_register(stages[Stage.ORACLE], 123)
    assert first[0] == second[0]
    assert np.array_equal(first[1].amps, second[1].amps)


def test_measurement_on_bijection_collapses_to_single_input():
    f = random_bijection(2, seed=8)
    stages = run_stages(f)
    observed, collapsed = measure_second_register(stages[Stage.ORACLE], 1)
    mags = np.abs(collapsed.amps)
    assert (mags > 1e-12).sum() == 1
    assert observed == f(int(np.argmax(mags)) >> 2)


# ---------------------------------------------------- state-vector layer bits


def reference_hadamard(amps: np.ndarray, n_first: int) -> np.ndarray:
    """The full-grid float butterfly over the flat joint vector ``amps``: every
    column transformed, two temporaries per pass, then scaled by 1/sqrt(2^n_first)."""
    rows = 1 << n_first
    cols = amps.size // rows
    a = amps.reshape(rows, cols).copy()
    h = 1
    while h < rows:
        a = a.reshape(rows // (2 * h), 2, h * cols)
        top = a[:, 0, :].copy()
        bottom = a[:, 1, :]
        a[:, 0, :] = top + bottom
        a[:, 1, :] = top - bottom
        a = a.reshape(rows, cols)
        h *= 2
    a *= 1.0 / math.sqrt(rows)
    return a.reshape(-1)


def reference_oracle(amps: np.ndarray, f: SimonFunction) -> np.ndarray:
    """The index scatter out[(x, z ^ f(x))] = in[(x, z)] over the full joint index."""
    idx = np.arange(amps.size)
    x = idx >> f.n
    z = idx & ((1 << f.n) - 1)
    out = np.empty_like(amps)
    out[(x << f.n) | (z ^ f.table[x])] = amps
    return out


def bits(amps: np.ndarray) -> np.ndarray:
    return amps.view(np.uint64)


def assert_matches_reference(got: np.ndarray, expected: np.ndarray, input_e: int) -> None:
    """Bit for bit when the reference's input amplitudes k 2^(-e/2) are exact
    (even e).  At odd e its input carries unit = 1/sqrt(2^e), within one ulp of
    2^(-e/2), and its final scaling another: 2 eps relative covers both."""
    if input_e % 2 == 0:
        assert np.array_equal(bits(got), bits(expected))
    else:
        assert np.all(np.abs(got - expected) <= 2 * np.finfo(float).eps * np.abs(got))


class Block(NamedTuple):
    """A stage in the column-block form: the sorted occupied ``columns``, the
    C-contiguous int8 ``(2^n, len(columns))`` codes ``k`` of them, and ``e``."""

    columns: np.ndarray
    k: np.ndarray
    e: int


def block_hadamard(block: Block) -> Block:
    """The column-block Hadamard layer: butterflies down every column, in the
    narrowest integer type that holds a column's sum of |k|, then a factor 2^t
    common to every code moved into e."""
    rows = block.k.shape[0]
    mass = int(np.abs(block.k).sum(axis=0, dtype=np.int64).max())
    a = block.k.astype(next(t for t in (np.int8, np.int16, np.int32) if mass <= np.iinfo(t).max))
    h = 1
    while h < rows:
        pairs = a.reshape(rows // (2 * h), 2, h * a.shape[1])
        top = pairs[:, 0, :].copy()
        pairs[:, 0, :] += pairs[:, 1, :]
        pairs[:, 1, :] = top - pairs[:, 1, :]
        h *= 2
    common = int(np.bitwise_or.reduce(a, axis=None))
    shift = (common & -common).bit_length() - 1
    a >>= shift
    assert a.min() >= -1 and a.max() <= 1
    return Block(block.columns, a.astype(np.int8), block.e + rows.bit_length() - 1 - 2 * shift)


def block_oracle(block: Block, f: SimonFunction) -> Block:
    """The column-block oracle: code (x, column z) moved to column z ^ f(x)."""
    targets = block.columns ^ f.table[:, None]
    columns = np.unique(targets)
    k = np.zeros((block.k.shape[0], columns.size), dtype=np.int8)
    k[np.arange(k.shape[0])[:, None], np.searchsorted(columns, targets)] = block.k
    return Block(columns, k, block.e)


def block_measure(block: Block, seed) -> tuple[int, Block]:
    """The column-block measurement: a column drawn by its sum of k^2, kept alone."""
    squares = np.add.reduce(block.k * block.k, axis=0, dtype=np.int32)
    j = next(born_samples(squares, np.random.default_rng(seed)))
    collapsed = Block(block.columns[j:j + 1], block.k[:, j:j + 1].copy(), int(squares[j]).bit_length() - 1)
    return int(block.columns[j]), collapsed


def block_circuit(f: SimonFunction, seed):
    """The column-block circuit's stages (initial, hadamard, oracle, final),
    the observed image, the collapsed stage and the post-measure stage."""
    initial = Block(np.array([0]), np.eye(1 << f.n, 1, dtype=np.int8), 0)
    oracle = block_oracle(block_hadamard(initial), f)
    observed, collapsed = block_measure(oracle, seed)
    stages = [initial, block_hadamard(initial), oracle, block_hadamard(oracle)]
    return stages, observed, collapsed, block_hadamard(collapsed)


def assert_same_block(psi: StateVector, block: Block) -> None:
    assert np.array_equal(psi.columns, block.columns) and psi.e == block.e
    assert psi.k.dtype == np.int8 and psi.k.flags.c_contiguous and np.array_equal(psi.k, block.k)


def circuit_tables(n: int):
    """A drawn mask, a bijection, and a table re-spelled with tabs and read back."""
    drawn = random_two_to_one(n, int(np.random.default_rng(n).integers(1, 1 << n)), n)
    text = format_function_table(random_two_to_one(n, (1 << n) - 1, n + 1))
    return drawn, random_bijection(n, n), parse_function_table(text.replace(" ", "\t"))


@pytest.mark.parametrize("n", range(1, 13))
def test_layers_match_the_full_grid_reference_bit_for_bit(n):
    # the column-block circuit, code for code at every stage, and up to n = 8
    # the float circuit on the full grid too
    for f in circuit_tables(n):
        stages = run_stages(f)
        blocks, observed, collapsed, post = block_circuit(f, n)
        for psi, block in zip(stages.values(), blocks, strict=True):
            assert_same_block(psi, block)
        got_observed, got_collapsed = measure_second_register(stages[Stage.ORACLE], n)
        assert got_observed == observed
        assert_same_block(got_collapsed, collapsed)
        assert_same_block(hadamard_first_register(got_collapsed), post)
        if n <= 8:
            hadamard = reference_hadamard(stages[Stage.INITIAL].amps, n)
            oracle = reference_oracle(hadamard, f)
            assert np.array_equal(bits(stages[Stage.HADAMARD].amps), bits(hadamard))
            assert np.array_equal(bits(stages[Stage.ORACLE].amps), bits(oracle))
            assert_matches_reference(stages[Stage.FINAL_HADAMARD].amps, reference_hadamard(oracle, n), n)


def test_random_states_match_the_full_grid_reference_bit_for_bit():
    # random factored sign patterns in both forms on few or many columns, and
    # the one-column states the oracle takes
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 7):
        f = random_two_to_one(n, (1 << n) - 1, 11)
        for filled in (1, 2, 3, 1 << n):
            psi = random_factored_state(rng, n, n, filled)
            for form in (psi, replace(psi, phase=not psi.phase)):
                assert_matches_reference(hadamard_first_register(form).amps, reference_hadamard(form.amps, n),
                                         form.e)
            lone = repeating_column(rng, f)
            assert np.array_equal(bits(oracle_apply(lone, f).amps), bits(reference_oracle(lone.amps, f)))


@pytest.mark.parametrize("n_first, n_second", [(1, 2), (2, 1), (3, 1), (3, 4), (5, 2)])
def test_hadamard_swaps_shifts_and_sign_flips(n_first, n_second):
    # W X^o = Z^o W and W Z^o = X^o W: the layer transforms the base alone,
    # keeps the columns and offsets and swaps the form; applied twice it is
    # the identity, code for code
    rng = np.random.default_rng(10 * n_first + n_second)
    for _ in range(8):
        drawn = random_factored_state(rng, n_first, n_second)
        for psi in (drawn, replace(drawn, phase=not drawn.phase)):
            once = hadamard_first_register(psi)
            assert once.phase is not psi.phase
            assert once.columns is psi.columns and once.offsets is psi.offsets
            lone = StateVector(n_first, n_second, psi.columns[:1], psi.base, np.zeros(1, dtype=int),
                               int(np.count_nonzero(psi.base)).bit_length() - 1)
            assert np.array_equal(once.base, hadamard_first_register(lone).base)
            assert_matches_reference(once.amps, reference_hadamard(psi.amps, n_first), psi.e)
            twice = hadamard_first_register(once)
            assert (twice.phase, twice.e) == (psi.phase, psi.e)
            assert np.array_equal(twice.base, psi.base) and np.array_equal(twice.amps, psi.amps)


def test_the_circuit_hadamard_layers_transform_one_int32_base_column(monkeypatch):
    # every layer runs its transform on one int32 column of 2^n codes and adds
    # n to e; a two-to-one f's final codes +-2 then move a factor 4 back into e
    shapes = []
    original = states._butterflies

    def recording(a):
        shapes.append((a.dtype, a.shape))
        original(a)

    monkeypatch.setattr(states, "_butterflies", recording)
    for n in (1, 6, 7, 10, 16):
        for f, final_e in ((random_two_to_one(n, 1, n), 2 * n - 2), (random_bijection(n, n), 2 * n)):
            exponents = [psi.e for psi in run_stages(f).values()]
            assert exponents == [0, n, n, final_e]
            assert shapes == [(np.int32, (1 << n,))] * 2
            shapes.clear()


def test_oracle_apply_rejects_what_it_cannot_factor():
    f = SimonFunction(2, [0, 3, 0, 3], 0b10)
    hadamard = run_stages(f)[Stage.HADAMARD]
    # a state of two columns
    with pytest.raises(ValueError, match="one-column"):
        oracle_apply(oracle_apply(hadamard, f), f)
    # preimage sets of unequal size, or of equal size but not shifts of f^-1(f(0))
    for table in ([0, 0, 0, 1], [0, 0, 1, 2], [0, 0, 1, 1, 0, 1, 0, 1]):
        n = len(table).bit_length() - 1
        with pytest.raises(ValueError, match="factor"):
            oracle_apply(run_stages(random_bijection(n, 1))[Stage.HADAMARD], SimonFunction(n, table, 0))
    # an input column that does not repeat its codes across the preimage sets
    codes = np.array([1, -1, 1, 1], dtype=np.int8)
    column = StateVector(2, 2, np.array([0]), codes, np.zeros(1, dtype=int), 2)
    with pytest.raises(ValueError, match="factor"):
        oracle_apply(column, SimonFunction(2, [0, 0, 1, 1], 0b01))


def test_oracle_apply_factors_exactly_the_tables_some_mask_validates():
    # the oracle reads its mask from f^-1(f(0)); it must accept a table exactly
    # when validate_function accepts it at some mask, and then move every code
    # as the full-grid scatter does
    every_small = ((n, table) for n in (1, 2) for table in itertools.product(range(1 << n), repeat=1 << n))
    near_valid = ((n, table) for n, table, _ in near_valid_tables(np.random.default_rng(36), 4000))
    hadamards = {n: hadamard_first_register(basis_state(n, n)) for n in range(1, 7)}
    factored = rejected = 0
    for n, table in itertools.chain(every_small, near_valid):
        f, hadamard = SimonFunction(n, table, 0), hadamards[n]
        if any(validate_function(SimonFunction(n, table, t)) == (True, None) for t in range(1 << n)):
            assert np.array_equal(bits(oracle_apply(hadamard, f).amps), bits(reference_oracle(hadamard.amps, f)))
            factored += 1
        else:
            with pytest.raises(ValueError, match="does not factor"):
                oracle_apply(hadamard, f)
            rejected += 1
    assert factored > 500 and rejected > 500


class Maskless:
    """A table without a readable mask: reading ``s`` raises."""

    def __init__(self, f: SimonFunction):
        self.n, self.table = f.n, f.table

    @property
    def s(self):
        raise AssertionError("the mask was read")


@pytest.mark.parametrize("n", [1, 3, 6, 20])
def test_oracle_apply_never_reads_the_mask(n):
    drawn = random_two_to_one(n, int(np.random.default_rng(n).integers(1, 1 << n)), n)
    hadamard = hadamard_first_register(basis_state(n, n))
    for f in (drawn, random_bijection(n, n)):
        got, expected = oracle_apply(hadamard, Maskless(f)), oracle_apply(hadamard, f)
        assert np.array_equal(got.columns, expected.columns) and np.array_equal(got.offsets, expected.offsets)
        assert np.array_equal(got.base, expected.base) and got.e == expected.e


@pytest.mark.parametrize("n", range(13, 21))
def test_large_circuits_keep_the_closed_form_support_and_born_law(n):
    # beyond any grid: the final stage's support is the table's, and its Born
    # law is uniform on the y with y.s = 0 (every y for a bijection)
    from simon_coherence import closed_forms

    ys = np.arange(1 << n)
    for f in (random_two_to_one(n, (1 << n) - 1 - n, n), random_bijection(n, n)):
        final = run_stages(f)[Stage.FINAL_HADAMARD]
        assert final.support == closed_forms.support(Stage.FINAL_HADAMARD, n, f.s)
        allowed = parities(ys & f.s, n) == 0
        probs = first_register_distribution(final)
        assert np.array_equal(probs, np.where(allowed, 1.0 / np.count_nonzero(allowed), 0.0))
        assert not {"k", "amps"} & set(vars(final))


# ------------------------------------------------- column blocks vs matrices


def hadamard_matrix(n_first: int, n_second: int) -> np.ndarray:
    """H^{(x)n_first} (x) I on the joint basis, first register in the high bits."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    m = np.ones((1, 1))
    for _ in range(n_first):
        m = np.kron(m, h)
    return np.kron(m, np.eye(1 << n_second))


def oracle_matrix(f: SimonFunction) -> np.ndarray:
    """The permutation matrix sending |x>|z> to |x>|z ^ f(x)>."""
    size = 1 << f.n
    m = np.zeros((size * size, size * size))
    for x in range(size):
        for z in range(size):
            m[(x << f.n) | (z ^ f(x)), (x << f.n) | z] = 1.0
    return m


def assert_block_holds(psi: StateVector) -> None:
    """columns sorted and distinct, k their contiguous int8 codes, zeros elsewhere."""
    grid = psi.amps.reshape(1 << psi.n_first, 1 << psi.n_second)
    assert np.all(np.diff(psi.columns) > 0)
    assert psi.k.dtype == np.int8 and psi.k.flags.c_contiguous
    assert np.array_equal(grid[:, psi.columns], psi.k.astype(np.float64) * psi.unit)
    assert not np.delete(grid, psi.columns, axis=1).any()


def random_block_states(rng, n):
    """A random factored sign pattern on at most half the columns, in both forms."""
    psi = random_factored_state(rng, n, n, max(1, (1 << n) // 2))
    yield psi
    yield replace(psi, phase=not psi.phase)


@pytest.mark.parametrize("n", range(1, 5))
def test_block_layers_match_the_explicit_matrices(n):
    rng = np.random.default_rng(100 + n)
    hadamard = hadamard_matrix(n, n)
    for f in (random_two_to_one(n, (1 << n) - 1, n), random_bijection(n, n)):
        oracle = oracle_matrix(f)
        lone = repeating_column(rng, f)
        for psi in random_block_states(rng, n):
            assert_block_holds(psi)
            for got, expected in ((hadamard_first_register(psi), hadamard @ psi.amps),
                                  (oracle_apply(lone, f), oracle @ lone.amps)):
                assert_block_holds(got)
                assert np.allclose(got.amps, expected)
            assert np.array_equal(hadamard_first_register(psi).columns, psi.columns)


@pytest.mark.parametrize("n", range(1, 5))
def test_oracle_stage_columns_are_the_images_of_f(n):
    for f in (random_two_to_one(n, 1, n), random_bijection(n, n)):
        stages = run_stages(f)
        assert stages[Stage.HADAMARD].columns.tolist() == [0]
        images = np.unique(f.table)
        assert np.array_equal(stages[Stage.ORACLE].columns, images)
        assert np.array_equal(stages[Stage.FINAL_HADAMARD].columns, images)
    # a bijection fills every column
    assert images.size == 1 << n


@pytest.mark.parametrize("n", range(1, 5))
def test_measurement_of_random_states_matches_the_projection(n):
    rng = np.random.default_rng(200 + n)
    size = 1 << n
    for seed, psi in enumerate(random_block_states(rng, n)):
        observed, collapsed = measure_second_register(psi, seed)
        grid = psi.amps.reshape(size, size)
        assert np.abs(grid[:, observed]).sum() > 0.0
        projected = np.zeros_like(grid)
        projected[:, observed] = grid[:, observed]
        assert collapsed.columns.tolist() == [observed]
        assert_block_holds(collapsed)
        assert np.allclose(collapsed.amps, projected.reshape(-1) / np.linalg.norm(projected))
        assert np.allclose(second_register_distribution(psi), (np.abs(grid) ** 2).sum(axis=0))


def test_circuit_layers_never_build_the_full_vector():
    n = 8
    f = random_two_to_one(n, 0b10110101, 8)
    stages = run_stages(f)
    _, collapsed = measure_second_register(stages[Stage.ORACLE], 8)
    states = [*stages.values(), collapsed, hadamard_first_register(collapsed)]
    for psi in states:
        assert psi.support == 1 << psi.e
        first_register_distribution(psi)
        second_register_distribution(psi)
    assert not [psi for psi in states if {"k", "amps"} & set(vars(psi))]
    # one base column of N codes and at most N/2 offsets is the most any stage holds
    assert max(psi.base.size for psi in states) == 1 << n
    assert max(psi.offsets.size for psi in states) == (1 << n) // 2


# -------------------------------------------------------------- function table


def reference_format_function_table(f: SimonFunction) -> str:
    """The table text built line by line, as the vectorised formatter must reproduce."""
    lines = [f"n={f.n} s={int_to_bits(f.s, f.n)}"]
    lines += [f"{int_to_bits(x, f.n)} {int_to_bits(f(x), f.n)}" for x in range(1 << f.n)]
    return "\n".join(lines) + "\n"


def reference_parse_function_table(text: str) -> SimonFunction:
    """The line-by-line parser, kept as the reference for the vectorised one."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FunctionTableError(1, "empty function table")
    header = lines[0].split()
    if len(header) != 2 or not header[0].startswith("n=") or not header[1].startswith("s="):
        raise FunctionTableError(1, f"expected header 'n=<int> s=<bits>', got {lines[0]!r}")
    if not (header[0][2:].isascii() and header[0][2:].isdigit()):
        raise FunctionTableError(1, f"invalid n in header: {header[0][2:]!r}")
    n = int(header[0][2:])
    if not 1 <= n <= MAX_ORACLE_BITS:
        raise FunctionTableError(1, f"n must lie in [1, {MAX_ORACLE_BITS}], got {n}")
    s_bits = header[1][2:]
    if len(s_bits) != n:
        raise FunctionTableError(1, f"s must be exactly {n} bits, got {s_bits!r}")
    try:
        s = bits_to_int(s_bits)
    except ValueError:
        raise FunctionTableError(1, f"invalid s in header: {s_bits!r}") from None
    size = 1 << n
    if len(lines) - 1 != size:
        raise FunctionTableError(
            min(len(lines) + 1, size + 2),
            f"expected {size} table lines after the header, got {len(lines) - 1}",
        )
    table = np.empty(size, dtype=np.int64)
    for x in range(size):
        lineno = x + 2
        parts = lines[x + 1].split()
        if len(parts) != 2:
            raise FunctionTableError(lineno, f"expected '<x bits> <f(x) bits>', got {lines[x + 1]!r}")
        if len(parts[0]) != n or len(parts[1]) != n:
            raise FunctionTableError(lineno, f"entries must be exactly {n} bits: {lines[x + 1]!r}")
        try:
            x_val = bits_to_int(parts[0])
            f_val = bits_to_int(parts[1])
        except ValueError:
            raise FunctionTableError(lineno, f"invalid bit string: {lines[x + 1]!r}") from None
        if x_val != x:
            raise FunctionTableError(
                lineno, f"inputs must appear in lexicographic order; expected {int_to_bits(x, n)}"
            )
        table[x] = f_val
    f = SimonFunction(n, table, s)
    ok, why = validate_function(f)
    if not ok:
        raise FunctionTableError(1, f"table inconsistent with declared mask: {why}")
    return f


def parse_outcome(parse, text: str):
    """(n, s, table) of a table the parser accepts, or (line, message) of its error."""
    try:
        f = parse(text)
    except FunctionTableError as exc:
        return exc.line, str(exc)
    return f.n, f.s, f.table.tolist()


def assert_parses_like_the_reference(text: str) -> None:
    assert parse_outcome(parse_function_table, text) == parse_outcome(reference_parse_function_table, text)


CORRUPTIONS = ("swap", "drop", "extra", "bad_char", "width", "three_tokens",
               "tabs", "spaces", "non_ascii_digit", "crlf_line")


@st.composite
def table_texts(draw):
    """A canonical table text, often with single-line corruptions and other line endings."""
    n = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**16))
    s = draw(st.integers(0, (1 << n) - 1))
    f = random_two_to_one(n, s, seed) if s else random_bijection(n, seed)
    lines = format_function_table(f).splitlines()
    for kind in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=2)):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, max(len(line) - 1, 0)))
        if kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], line
        elif kind == "drop":
            del lines[i]
        elif kind == "extra":
            lines.insert(i, draw(st.sampled_from([line, "", "  ", "0 1", "\t"])))
        elif kind == "bad_char":
            lines[i] = line[:at] + draw(st.sampled_from("2x-=\x00\x0b\xa0\u2028")) + line[at + 1:]
        elif kind == "width":
            lines[i] = line[:at] + draw(st.sampled_from(["", "0", "1", "01"])) + line[at + 1:]
        elif kind == "three_tokens":
            lines[i] = line + draw(st.sampled_from([" 0", " 1", "\t" + line, " x"]))
        elif kind == "tabs":
            lines[i] = line.replace(" ", "\t")
        elif kind == "spaces":
            lines[i] = draw(st.sampled_from(["", " ", "\u3000"])) + line.replace(" ", "   ") + draw(
                st.sampled_from(["", " ", "\t", "\x1f"]))
        elif kind == "non_ascii_digit":
            lines[i] = line[:at] + draw(st.sampled_from("\u0661\u0660\uff11\U0001d7cf")) + line[at + 1:]
        elif kind == "crlf_line":
            lines[i] = line + "\r"
        if not lines:
            break
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    final = draw(st.sampled_from(["", ending]))
    return ending.join(lines) + final + draw(st.sampled_from(["", "\n", "\n\n", " \n\t", "\r\n \r\n"]))


@settings(max_examples=400, deadline=None)
@given(table_texts())
def test_parser_matches_the_line_by_line_reference(text):
    assert_parses_like_the_reference(text)


def test_parser_matches_the_reference_on_each_side_of_a_step():
    # in a 2^17-line table, a fault on either side of x = 2^16, or on the last
    # line, is reported at its own line
    n = 17
    lines = format_function_table(random_two_to_one(n, 0b10110, 17)).splitlines()
    for x in ((1 << 16) - 1, 1 << 16, (1 << n) - 1):
        for fault in ("2", " 0"):
            corrupted = lines.copy()
            corrupted[x + 1] += fault
            assert_parses_like_the_reference("\n".join(corrupted) + "\n")


def test_parser_matches_the_reference_near_the_written_layout():
    # a written table with one bit, separator or line end changed, then blank
    # texts and texts a line break, a line or a character away from the layout
    text = format_function_table(random_two_to_one(3, 0b011, 3))
    row = len("n=3 s=011\n") + 2 * 8  # the third body row
    same_length = [text[:row + at] + c + text[row + at + 1:] for at in (0, 3, 7) for c in " x0/2\r\n\u0661"]
    others = ["", "\n", " \n\t\n", "\r\n", text.replace("\n", "\r\n", 1), text.replace("\n", "\rjunk\n", 1),
              "\n" + text, text[:-1], text + " ", text + "000 000\n", text.replace("000 ", "000  ", 1)]
    for candidate in same_length + others:
        assert_parses_like_the_reference(candidate)


def test_parser_whitespace_is_that_of_str_split_and_splitlines():
    lines = format_function_table(random_two_to_one(3, 0b101, 3)).splitlines()
    for c in map(chr, range(0x110000)):
        if c.isspace():
            # c as the separator of every line's tokens, then as every line's ending
            assert_parses_like_the_reference("\n".join(line.replace(" ", c) for line in lines) + "\n")
            assert_parses_like_the_reference(c.join(lines) + c)


@pytest.mark.parametrize("n", [*range(1, 13), 20])
def test_function_table_round_trips_byte_for_byte(n):
    for f in (random_two_to_one(n, (1 << n) - 1, n), random_bijection(n, n)):
        text = format_function_table(f)
        if n <= 12:
            assert text == reference_format_function_table(f)
        # as written, and re-spelled with tabs, runs of spaces and trailing blank lines
        respelled = text.replace(" ", "\t").replace("\n", "  \n ") + "\n\t\n"
        for parsed in (parse_function_table(text), parse_function_table(respelled)):
            assert (parsed.n, parsed.s) == (f.n, f.s)
            assert np.array_equal(parsed.table, f.table)


def test_function_table_round_trip(f_three_qubit):
    text = format_function_table(f_three_qubit)
    assert text.splitlines()[0] == "n=3 s=110"
    parsed = parse_function_table(text)
    assert parsed.n == 3 and parsed.s == 6
    assert np.array_equal(parsed.table, f_three_qubit.table)


def test_function_table_header_errors():
    with pytest.raises(FunctionTableError) as exc:
        parse_function_table("bogus header\n")
    assert exc.value.line == 1
    with pytest.raises(FunctionTableError):
        parse_function_table("n=2 s=111\n")  # mask width mismatch
    # int() reads each of these n as 2, but the header takes ASCII decimal digits only
    body = "00 00\n01 01\n10 10\n11 11\n"
    for n_text in ("0_2", "+2", "\u0662"):
        with pytest.raises(FunctionTableError) as exc:
            parse_function_table(f"n={n_text} s=00\n{body}")
        assert exc.value.line == 1 and "invalid n in header" in str(exc.value)
    assert parse_function_table(f"n=2 s=00\n{body}").n == 2


def test_function_table_body_errors(f_two_qubit):
    text = format_function_table(f_two_qubit)
    lines = text.splitlines()
    swapped = "\n".join([lines[0], lines[2], lines[1], lines[3], lines[4]]) + "\n"
    with pytest.raises(FunctionTableError) as exc:
        parse_function_table(swapped)
    assert exc.value.line == 2
    truncated = "\n".join(lines[:3]) + "\n"
    with pytest.raises(FunctionTableError):
        parse_function_table(truncated)
    garbled = "\n".join([lines[0], "00 2x", *lines[2:]]) + "\n"
    with pytest.raises(FunctionTableError) as exc:
        parse_function_table(garbled)
    assert exc.value.line == 2


def test_function_table_rejects_inconsistent_mask(f_two_qubit):
    text = format_function_table(f_two_qubit).replace("s=11", "s=01")
    with pytest.raises(FunctionTableError):
        parse_function_table(text)


def test_born_weights_match_the_full_grid_reference_bit_for_bit():
    # the draw is rng.choice's over the column weights sum k^2 2^-e, each rounded once
    rng = np.random.default_rng(13)
    for n in (2, 4, 6):
        size = 1 << n
        for empty in (0, 1, size // 2, size - 2, size - 1):
            grid, e = random_codes(rng, n, n, size - empty)
            psi = flat_state(n, n, grid, e)
            # sum k^2 per column as Python integers, over 2^e, rounded once
            squares = (grid.astype(np.int64) ** 2).sum(axis=0)
            probs = np.array([float(Fraction(int(total), 1 << e)) for total in squares])
            assert np.array_equal(second_register_distribution(psi), probs)
            support = np.flatnonzero(probs > 0.0)
            weights = probs[support] / probs[support].sum()
            for seed in range(n, n + 10):
                observed, _ = measure_second_register(psi, seed)
                assert observed == support[np.random.default_rng(seed).choice(support.size, p=weights)]
