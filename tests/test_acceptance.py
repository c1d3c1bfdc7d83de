"""Acceptance checks, one per criterion, each printing a [PASS]/[FAIL] line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they happen; without -s pytest shows them for failing tests only.
"""

import json
import math
import time

import numpy as np

from simon_coherence import (
    DEFAULT_PANEL,
    L1,
    REGIME_DEPLETION,
    REGIME_NEUTRAL,
    REGIME_PRODUCTION,
    REL_ENTROPY,
    SimonFunction,
    Stage,
    classify_regime,
    coherence_delta,
    dense_coherence,
    density_of,
    final_stage_coherence,
    first_register_distribution,
    hadamard_stage_coherence,
    l1_coherence,
    l1p,
    l1p_coherence,
    random_two_to_one,
    recover,
    relative_entropy_coherence,
    run_stages,
    skew_information_coherence,
    tsallis,
    tsallis_coherence,
)
from conftest import dot_mod2
from simon_coherence.cli import EXIT_OK, main

TWO_QUBIT = SimonFunction(2, [0b00, 0b11, 0b11, 0b00], 0b11)
THREE_QUBIT = SimonFunction(3, [0b101, 0b010, 0b000, 0b110, 0b000, 0b110, 0b101, 0b010], 0b110)

FULL_PANEL = DEFAULT_PANEL + (L1,)


def _verdict(number: int, description: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = "" if elapsed is None else f" [{elapsed:.2f}s]"
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}{stamp}")
    assert ok, f"criterion {number}: {description}"


def _stage_values(f: SimonFunction) -> dict[Stage, dict[str, float]]:
    stages = run_stages(f)
    out = {}
    for stage in (Stage.HADAMARD, Stage.ORACLE, Stage.FINAL_HADAMARD):
        rho = density_of(stages[stage])
        out[stage] = {
            "skew_info": skew_information_coherence(rho),
            "rel_entropy": relative_entropy_coherence(rho),
            "l1": l1_coherence(rho),
        }
    return out


def test_criterion_1_two_qubit_example():
    start = time.perf_counter()
    values = _stage_values(TWO_QUBIT)
    expected = {"skew_info": 0.75, "rel_entropy": 2.0, "l1": 3.0}
    ok = all(
        abs(values[stage][name] - want) < 1e-9
        for stage in values
        for name, want in expected.items()
    )
    deltas_zero = all(
        abs(values[Stage.FINAL_HADAMARD][name] - values[Stage.HADAMARD][name]) < 1e-9
        for name in expected
    )
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "n=2 example: skew 0.75, entropy 2, l1 3 at every stage, zero deltas",
        ok and deltas_zero and elapsed < 1.0,
        elapsed,
    )


def test_criterion_2_three_qubit_example():
    start = time.perf_counter()
    values = _stage_values(THREE_QUBIT)
    hadamard_want = {"skew_info": 7.0 / 8.0, "rel_entropy": 3.0, "l1": 7.0}
    final_want = {"skew_info": 15.0 / 16.0, "rel_entropy": 4.0, "l1": 15.0}
    delta_want = {"skew_info": 1.0 / 16.0, "rel_entropy": 1.0, "l1": 8.0}
    ok = all(
        abs(values[Stage.HADAMARD][name] - want) < 1e-9 for name, want in hadamard_want.items()
    )
    ok = ok and all(
        abs(values[Stage.FINAL_HADAMARD][name] - want) < 1e-9
        for name, want in final_want.items()
    )
    ok = ok and all(
        abs(values[Stage.FINAL_HADAMARD][name] - values[Stage.HADAMARD][name] - want) < 1e-9
        for name, want in delta_want.items()
    )
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "n=3 example: 7/8,3,7 then 15/16,4,15 with deltas 1/16,1,8",
        ok and elapsed < 1.0,
        elapsed,
    )


def test_criterion_3_closed_forms_match_dense_grids():
    start = time.perf_counter()
    alphas = (0.3, 0.5, 0.9, 1.1, 1.5, 2.0)
    ps = (1.0, 1.3, 1.7, 2.0)
    measures = tuple(tsallis(a) for a in alphas) + tuple(l1p(p) for p in ps)
    worst = 0.0
    oracle_spread = 0.0
    rng = np.random.default_rng(2024)
    for n in range(1, 6):
        dim = 1 << n
        final_samples: dict[str, list[float]] = {m.label(): [] for m in measures}
        for _ in range(3):
            s = int(rng.integers(1, dim))
            f = random_two_to_one(n, s, int(rng.integers(2**31)))
            stages = run_stages(f)
            rho_h = density_of(stages[Stage.HADAMARD])
            rho_f = density_of(stages[Stage.FINAL_HADAMARD])
            for measure in measures:
                got_h = dense_coherence(rho_h, measure)
                got_f = dense_coherence(rho_f, measure)
                worst = max(worst, abs(got_h - hadamard_stage_coherence(dim, measure)))
                worst = max(worst, abs(got_f - final_stage_coherence(dim, measure)))
                final_samples[measure.label()].append(got_f)
        for samples in final_samples.values():
            oracle_spread = max(oracle_spread, max(samples) - min(samples))
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        f"dense vs closed forms over alpha/p grids, n<=5 (worst {worst:.2e}, "
        f"oracle spread {oracle_spread:.2e})",
        worst < 1e-9 and oracle_spread < 1e-9 and elapsed < 30.0,
        elapsed,
    )


def test_criterion_4_oracle_layer_preserves_every_measure():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(77)
    for n in range(1, 6):
        for _ in range(10):
            s = int(rng.integers(1, 1 << n))
            f = random_two_to_one(n, s, int(rng.integers(2**31)))
            stages = run_stages(f)
            rho_h = density_of(stages[Stage.HADAMARD])
            rho_o = density_of(stages[Stage.ORACLE])
            for measure in FULL_PANEL:
                diff = abs(dense_coherence(rho_o, measure) - dense_coherence(rho_h, measure))
                worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        f"oracle leaves all panel measures unchanged, 10 oracles per n<=5 (worst {worst:.2e})",
        worst < 1e-9,
        elapsed,
    )


def test_criterion_5_production_threshold():
    start = time.perf_counter()
    ok = classify_regime(2).regime == REGIME_DEPLETION
    neutral = classify_regime(4)
    ok = ok and neutral.regime == REGIME_NEUTRAL
    ok = ok and all(abs(delta) < 1e-12 for delta in neutral.deltas.values())
    for dim in (8, 16, 32):
        verdict = classify_regime(dim)
        ok = ok and verdict.regime == REGIME_PRODUCTION
        ok = ok and all(delta > 0.0 for delta in verdict.deltas.values())
    exact = all(
        coherence_delta(1 << n, REL_ENTROPY) == float(n - 2) for n in range(1, 21)
    )
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "delta sign flips at N=4; entropy delta equals log2(N/4) exactly up to 2^20",
        ok and exact,
        elapsed,
    )


def test_criterion_6_measurement_distribution():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(404)
    for n in range(1, 6):
        for _ in range(3):
            s = int(rng.integers(1, 1 << n))
            f = random_two_to_one(n, s, int(rng.integers(2**31)))
            probs = first_register_distribution(run_stages(f)[Stage.FINAL_HADAMARD])
            target = 1.0 / 2 ** (n - 1)
            for y in range(1 << n):
                want = target if dot_mod2(y, s) == 0 else 0.0
                worst = max(worst, abs(probs[y] - want))
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        f"final-stage outcomes uniform on the orthogonal set, zero elsewhere "
        f"(max deviation {worst:.2e})",
        worst < 1e-12,
        elapsed,
    )


def test_criterion_7_recovery_success_and_query_budget():
    start = time.perf_counter()
    ok = True
    stats = []
    for n in range(2, 9):
        seeds = np.random.SeedSequence(n).spawn(1000)
        mask_rng = np.random.default_rng(np.random.SeedSequence((n, 1)))
        queries = []
        for trial_seed in seeds:
            s = int(mask_rng.integers(1, 1 << n))
            f = random_two_to_one(n, s, trial_seed)
            report = recover(f, trial_seed.spawn(1)[0])
            if not (report.s_hat is not None and report.s_hat == s):
                ok = False
            queries.append(report.queries)
        mean = sum(queries) / len(queries)
        stats.append((n, mean))
        ok = ok and mean <= n + 3
    elapsed = time.perf_counter() - start
    summary = ", ".join(f"n={n}:{mean:.2f}" for n, mean in stats)
    _verdict(
        7,
        f"1000 recoveries per n in 2..8 all succeed; mean queries ({summary}) within n+3",
        ok and elapsed < 60.0,
        elapsed,
    )


def test_criterion_8_reduction_limits_on_random_pure_states():
    start = time.perf_counter()
    rng = np.random.default_rng(512)
    ln2 = math.log(2.0)
    ok = True
    for index in range(100):
        dim = int(rng.integers(2, 17))
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps /= np.linalg.norm(amps)
        rho = np.outer(amps, amps.conj())
        skew = skew_information_coherence(rho)
        entropy = relative_entropy_coherence(rho)
        ok = ok and abs(tsallis_coherence(rho, 0.5) - 2.0 * skew) < 1e-9
        ok = ok and abs(tsallis_coherence(rho, 1.0 + 1e-6) - ln2 * entropy) < 1e-4
        ok = ok and abs(tsallis_coherence(rho, 1.0 - 1e-6) - ln2 * entropy) < 1e-4
        ok = ok and abs(l1p_coherence(rho, 1.0) - l1_coherence(rho)) < 1e-12
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "100 random pure states: order 1/2 doubles skew, orders near 1 reach "
        "ln2 x entropy, p=1 norm equals l1",
        ok,
        elapsed,
    )


def test_criterion_9_verify_reports_l1_conflict(capsys):
    start = time.perf_counter()
    code = main(["verify", "--n", "3", "--seed", "0"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    note = doc["l1_conflict"]["note"]
    ok = (
        code == EXIT_OK
        and doc["ok"] is True
        and "N^2/4-1" in note
        and "N^2/2-1" in note
        and "confirming N^2/4-1" in note
        and note in out
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _verdict(
            9,
            "verify prints the l1 conflict line naming both forms and the dense winner",
            ok,
            elapsed,
        )
