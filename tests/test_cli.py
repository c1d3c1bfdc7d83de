import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simon_coherence import (
    DEFAULT_PANEL,
    SKEW_INFO,
    Stage,
    StateVector,
    cli,
    closed_forms,
    measures,
    measure_second_register,
    parse_function_table,
)
from simon_coherence.cli import (
    EXIT_CAPABILITY,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    _agreement,
    _build_panel,
    _json,
    build_parser,
    main,
)

STAGE_ORDER = ["initial", "hadamard", "oracle", "final_hadamard", "post_measure"]


def perturb_support(monkeypatch, stage):
    """Double the support ``closed_forms.support`` gives one stage, so its
    closed form no longer describes the simulated state there."""
    exact = closed_forms.support

    def perturbed(at, n, s):
        return 2 * exact(at, n, s) if at is stage else exact(at, n, s)

    monkeypatch.setattr(closed_forms, "support", perturbed)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def stage_entry(doc, name):
    return next(entry for entry in doc["stages"] if entry["stage"] == name)


def value_of(entry, kind, method, **params):
    for row in entry["values"]:
        if row["measure"] == kind and row["method"] == method and row["params"] == params:
            return row["value"]
    raise KeyError((kind, method, params))


# ------------------------------------------------------------------------ run


def test_run_worked_example(capsys):
    code, doc = run_json(capsys, ["run", "--n", "2", "--s", "11", "--seed", "7"])
    assert code == EXIT_OK
    assert doc["config"]["n"] == 2
    assert doc["config"]["s"] == "11"
    assert [entry["stage"] for entry in doc["stages"]] == STAGE_ORDER

    hadamard = stage_entry(doc, "hadamard")
    final = stage_entry(doc, "final_hadamard")
    for entry in (hadamard, final):
        assert value_of(entry, "rel_entropy", "dense") == pytest.approx(2.0, abs=1e-9)
        assert value_of(entry, "skew_info", "dense") == pytest.approx(0.75, abs=1e-9)
        assert value_of(entry, "tsallis", "pure_fast", alpha=0.5) == pytest.approx(1.5)
    assert doc["regime"]["regime"] == "neutral"
    assert all(not row["flagged"] for row in doc["discrepancies"])
    assert stage_entry(doc, "initial")["max_discrepancy"] == 0.0


def test_run_three_qubit_production(capsys):
    code, doc = run_json(
        capsys,
        ["run", "--n", "3", "--s", "110", "--seed", "1", "--measures", "rel_entropy,l1"],
    )
    assert code == EXIT_OK
    final = stage_entry(doc, "final_hadamard")
    assert value_of(final, "l1", "dense") == pytest.approx(15.0, abs=1e-9)
    assert value_of(final, "l1", "pure_fast") == pytest.approx(15.0)
    assert value_of(final, "rel_entropy", "pure_fast") == pytest.approx(4.0, abs=1e-9)
    assert doc["regime"]["regime"] == "production"

    post = stage_entry(doc, "post_measure")
    assert set(post["observed"]) <= {"0", "1"} and len(post["observed"]) == 3
    # collapsed-and-rotated state is uniform over 2^(n-1) outcomes
    assert value_of(post, "l1", "pure_fast") == pytest.approx(3.0, abs=1e-9)


def test_run_is_byte_identical_for_fixed_seed(capsys):
    argv = ["run", "--n", "3", "--s", "101", "--seed", "42"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    # canonical two-space JSON, trailing newline included
    assert json.dumps(json.loads(first), indent=2) + "\n" == first


def test_the_report_reads_no_seed_from_the_environment(capsys, monkeypatch):
    # the seed comes from argv alone and defaults to 0
    monkeypatch.setenv("SIMON_COHERENCE_SEED", "9")
    _, unseeded, _ = run_cli(capsys, ["run", "--n", "2", "--s", "11"])
    _, seed_zero, _ = run_cli(capsys, ["run", "--n", "2", "--s", "11", "--seed", "0"])
    assert unseeded == seed_zero


@pytest.mark.parametrize(
    "command",
    [["run", "--n", "2", "--s", "11"], ["verify", "--n", "2"], ["recover", "--n", "2", "--trials", "2"],
     ["gen-oracle", "--n", "2"]],
)
def test_negative_seed_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command + ["--seed", "-1"])
    assert (code, out) == (EXIT_USAGE, "")
    assert "--seed must not be negative, got -1" in err


@pytest.mark.parametrize(
    "stage, argv, supports",
    [
        (Stage.ORACLE, ["--n", "3", "--seed", "5", "--measures", "tsallis", "--alphas", "0.001"], (8, 16)),
        *((Stage.FINAL_HADAMARD, ["--n", "3", "--s", "110", "--seed", "2", "--dense", dense,
                                  "--measures", "skew_info"], (16, 32)) for dense in ("on", "off")),
    ],
    ids=["oracle", "final_hadamard-dense-on", "final_hadamard-dense-off"],
)
def test_run_flags_a_wrong_support_that_no_value_shows(capsys, monkeypatch, stage, argv, supports):
    # the closed form enters a check only as its support, so no value moves and
    # only the integer comparison can see the doubled support
    perturb_support(monkeypatch, stage)
    code, doc = run_json(capsys, ["run", *argv])
    assert code == EXIT_MISMATCH
    assert [row["stage"] for row in doc["discrepancies"] if row["flagged"]] == [stage.value]
    assert [entry["max_discrepancy"] for entry in doc["stages"]] == [0.0] * len(STAGE_ORDER)
    assert {entry["stage"]: (entry["support"], entry["closed_form_support"]) for entry in doc["stages"]
            if entry["support"] != entry["closed_form_support"]} == {stage.value: supports}


def test_run_bijection_has_a_final_closed_form_but_no_regime(capsys):
    code, doc = run_json(capsys, ["run", "--n", "2", "--s", "00", "--seed", "3"])
    assert code == EXIT_OK
    assert doc["regime"] is None
    # a bijection's final stage is uniform over all N^2 joint basis states
    final = stage_entry(doc, "final_hadamard")
    assert final["support"] == final["closed_form_support"] == 16
    assert value_of(final, "l1p", "pure_fast", p=1.0) == 15.0
    assert value_of(final, "rel_entropy", "pure_fast") == 4.0
    # the hadamard stage closed form does not depend on the mask
    assert value_of(stage_entry(doc, "hadamard"), "rel_entropy", "pure_fast") == 2.0


def keep_two_columns(psi, seed):
    """A collapse that keeps the observed column and the one beside it."""
    observed, collapsed = measure_second_register(psi, seed)
    j = int(np.searchsorted(psi.columns, observed))
    pair = slice(j - 1, j + 1) if j else slice(0, 2)
    return observed, StateVector(psi.n_first, psi.n_second, psi.columns[pair], psi.base, psi.offsets[pair],
                                 collapsed.e + 1, psi.phase)


@pytest.mark.parametrize("argv", [["--n", "3", "--dense", "on"], ["--n", "5"], ["--n", "8"]])
def test_run_flags_a_collapse_that_keeps_two_columns(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "measure_second_register", keep_two_columns)
    code, doc = run_json(capsys, ["run", *argv, "--seed", "1"])
    assert code == EXIT_MISMATCH
    assert {row["stage"] for row in doc["discrepancies"] if row["flagged"]} == {"post_measure"}
    post = stage_entry(doc, "post_measure")
    assert post["support"] == 2 * post["closed_form_support"]


@pytest.mark.parametrize("dense", ["auto", "off"])
@pytest.mark.parametrize("mask", ["drawn", "bijection"])
@pytest.mark.parametrize("n", range(1, 13))
def test_run_checks_every_stage_by_two_routes(capsys, n, mask, dense):
    argv = ["run", "--n", str(n), "--seed", "1", "--dense", dense]
    if mask == "bijection":
        argv += ["--s", "0" * n]
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK
    assert [entry["stage"] for entry in doc["stages"]] == STAGE_ORDER
    # the routes are the float values and the exact support comparison
    expected = ["dense", "pure_fast"] if doc["config"]["dense"] else ["pure_fast"]
    for entry in doc["stages"]:
        assert entry["support"] == entry["closed_form_support"]
        routes = {}
        for row in entry["values"]:
            routes.setdefault((row["measure"], tuple(row["params"].items())), []).append(row["method"])
        assert list(routes.values()) == [expected] * len(DEFAULT_PANEL)


def negative_zeros(node):
    """Every -0.0 among the leaves of a parsed report."""
    if isinstance(node, dict):
        return [z for value in node.values() for z in negative_zeros(value)]
    if isinstance(node, list):
        return [z for value in node for z in negative_zeros(value)]
    return [node] if isinstance(node, float) and node == 0.0 and math.copysign(1.0, node) < 0 else []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_report_holds_a_negative_zero(capsys, n):
    panel = ["--alphas", "0.001,0.5,2.0"]
    for command in (["run", "--n", str(n), "--seed", "1"], ["run", "--n", str(n), "--s", "0" * n, "--seed", "1"],
                    ["verify", "--n", str(n), "--seed", "1"], ["sweep", "--n-max", str(n)]):
        code, doc = run_json(capsys, command + panel)
        assert code == EXIT_OK
        assert negative_zeros(doc) == [], command


def test_run_beyond_dense_limit_drops_dense_route(capsys):
    code, doc = run_json(capsys, ["run", "--n", "6", "--seed", "0"])
    assert code == EXIT_OK
    assert doc["config"]["dense"] is False
    methods = {row["method"] for row in stage_entry(doc, "hadamard")["values"]}
    assert methods == {"pure_fast"}


def test_run_final_stage_l1p_spread_is_exactly_zero_at_n_11(capsys):
    # the final stage's exponent e is even, so its amplitudes are powers of two
    # and the pure route's sums are exact; float amplitudes left a 4.66e-10 spread
    code, doc = run_json(capsys, ["run", "--n", "11", "--seed", "1"])
    assert code == EXIT_OK
    (row,) = [entry for entry in doc["discrepancies"] if entry["stage"] == "final_hadamard"
              and entry["measure"] == "l1p" and entry["params"] == {"p": 1.0}]
    assert row["max_difference"] == 0.0


def test_run_capability_limits(capsys):
    code, _, err = run_cli(capsys, ["run", "--n", "6", "--seed", "0", "--dense", "on"])
    assert code == EXIT_CAPABILITY and "n <= 5" in err
    code, _, err = run_cli(capsys, ["run", "--n", "21", "--seed", "0"])
    assert code == EXIT_CAPABILITY and "n <= 20" in err


def test_run_function_file_round_trip(capsys, tmp_path):
    table = tmp_path / "oracle.txt"
    code, out, _ = run_cli(capsys, ["gen-oracle", "--n", "3", "--s", "110", "--seed", "4"])
    assert code == EXIT_OK
    table.write_text(out)

    code, doc = run_json(capsys, ["run", "--function-file", str(table), "--seed", "4"])
    assert code == EXIT_OK
    assert doc["config"]["n"] == 3
    assert doc["config"]["s"] == "110"

    code, _, err = run_cli(
        capsys, ["run", "--function-file", str(table), "--n", "2", "--seed", "4"]
    )
    assert code == EXIT_USAGE and "conflicts" in err


def test_run_rejects_malformed_function_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n=2 s=11\n00 00\n01 11\n10 11\n11 01\n")
    code, _, err = run_cli(capsys, ["run", "--function-file", str(bad)])
    assert code == EXIT_USAGE
    assert "invalid function table" in err


def test_run_rejects_a_function_file_that_is_not_utf8(capsys, tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"n=1 s=1\n0 0\n1 \xff\n")
    code, out, err = run_cli(capsys, ["run", "--function-file", str(bad)])
    assert code == EXIT_USAGE and out == ""
    assert f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("flags", [[], ["--n", "3", "--s", "110"]])
def test_run_rejects_an_empty_function_file_path(capsys, flags):
    code, out, err = run_cli(capsys, ["run", "--function-file", "", *flags])
    assert code == EXIT_USAGE and out == ""
    assert "cannot read" in err


# ---------------------------------------------------------------------- verify


def test_verify_passes_and_resolves_l1_conflict(capsys):
    code, doc = run_json(capsys, ["verify", "--n", "3", "--seed", "5"])
    assert code == EXIT_OK
    assert doc["ok"] is True
    assert all(check["ok"] for check in doc["checks"])
    assert all(row["ok"] for row in doc["deltas"])

    conflict = doc["l1_conflict"]
    assert conflict["confirmed"] == "N^2/4-1"
    assert conflict["evidence"] == [
        {"n": 3, "dense_l1": 15.0, "quarter_form": 15.0, "half_form": 31.0, "matches": "N^2/4-1"}
    ]
    assert "N^2/4-1" in conflict["note"] and "N^2/2-1" in conflict["note"]
    assert "confirming N^2/4-1" in conflict["note"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_decides_l1_from_its_own_final_stage(capsys, n):
    for seed in range(3):
        code, doc = run_json(capsys, ["verify", "--n", str(n), "--seed", str(seed), "--measures", "skew_info"])
        assert code == EXIT_OK
        conflict = doc["l1_conflict"]
        assert len(conflict["evidence"]) == 1
        (row,) = conflict["evidence"]
        assert row["n"] == n
        assert row["dense_l1"] == row["quarter_form"] == (1 << n) ** 2 / 4 - 1
        assert row["matches"] == conflict["confirmed"] == "N^2/4-1"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mask", ["drawn", "zero"])
def test_verify_checks_every_stage_as_run_does(capsys, n, mask):
    # one staged check: each verify row is run --dense on's values at that stage
    argv = ["--n", str(n), "--seed", "3"] + (["--s", "0" * n] if mask == "zero" else [])
    code, ran = run_json(capsys, ["run", *argv, "--dense", "on"])
    assert code == EXIT_OK
    code, doc = run_json(capsys, ["verify", *argv])
    assert code == EXIT_OK and doc["ok"] is True
    assert [row["stage"] for row in doc["checks"]] == [
        stage for stage in STAGE_ORDER for _ in range(len(DEFAULT_PANEL))
    ]
    for row in doc["checks"]:
        entry = stage_entry(ran, row["stage"])
        assert (row["support"], row["closed_form_support"]) == (entry["support"], entry["closed_form_support"])
        assert row["values"] == {
            value["method"]: value["value"] for value in entry["values"]
            if (value["measure"], value["params"]) == (row["measure"], row["params"])
        }
    if mask == "zero":
        assert doc["l1_conflict"] is None
    else:
        assert doc["l1_conflict"]["confirmed"] == "N^2/4-1"


def test_verify_simulates_one_circuit(capsys, monkeypatch):
    calls = []
    run_stages = cli.run_stages

    def counted(f):
        calls.append(f.n)
        return run_stages(f)

    monkeypatch.setattr(cli, "run_stages", counted)
    for n in (1, 3, 5):
        code, _ = run_json(capsys, ["verify", "--n", str(n), "--seed", "4"])
        assert code == EXIT_OK
    assert calls == [1, 3, 5]


@pytest.mark.parametrize("measures_flag", ["skew_info", "tsallis,l1p,skew_info,l1"])
def test_verify_builds_one_density_matrix_per_verified_stage(capsys, monkeypatch, measures_flag):
    # the l1 verdict reads the final stage's matrix from the staged check
    built = []
    density_of = cli.density_of

    def counted(psi):
        built.append(psi.support)
        return density_of(psi)

    monkeypatch.setattr(cli, "density_of", counted)
    for n in (1, 3, 5):
        code, doc = run_json(capsys, ["verify", "--n", str(n), "--seed", "4", "--measures", measures_flag])
        assert code == EXIT_OK and doc["l1_conflict"]["confirmed"] == "N^2/4-1"
        # initial, hadamard, oracle, final_hadamard, post_measure
        assert built == [1, 1 << n, 1 << n, (1 << n) ** 2 // 4, (1 << n) // 2]
        built.clear()


def test_no_product_layer_builds_the_grid_above_n_5(capsys, monkeypatch):
    def grid(psi):
        raise AssertionError(f"a grid was built at n = {psi.n_first}")

    monkeypatch.setattr(StateVector, "amps", property(grid))
    for argv in (["run", "--n", "12", "--seed", "1"], ["run", "--n", "12", "--s", "0" * 12, "--seed", "1"],
                 ["recover", "--n", "12", "--trials", "3", "--seed", "1"]):
        code, _ = run_json(capsys, argv)
        assert code == EXIT_OK


def test_verify_note_rules_out_every_form_the_dense_l1_misses(capsys, monkeypatch):
    exact = measures.l1_coherence
    monkeypatch.setattr(measures, "l1_coherence", lambda rho: exact(rho) + 1.0)
    code, doc = run_json(capsys, ["verify", "--n", "3", "--seed", "5", "--measures", "skew_info"])
    assert code == EXIT_MISMATCH
    assert doc["ok"] is False
    assert all(row["ok"] for row in doc["checks"]) and all(row["ok"] for row in doc["deltas"])
    conflict = doc["l1_conflict"]
    assert conflict["confirmed"] == conflict["evidence"][0]["matches"] == "neither"
    assert conflict["note"].endswith("confirming neither and ruling out N^2/4-1 and N^2/2-1")


def test_verify_emits_conflict_note_for_every_panel(capsys):
    code, doc = run_json(
        capsys, ["verify", "--n", "2", "--s", "01", "--seed", "0", "--measures", "skew_info"]
    )
    assert code == EXIT_OK
    assert "ruling out N^2/2-1" in doc["l1_conflict"]["note"]


def test_verify_deltas_are_differences_of_the_checked_dense_values(capsys):
    code, doc = run_json(
        capsys, ["verify", "--n", "4", "--seed", "5", "--measures", "tsallis,l1p,rel_entropy,skew_info,l1"]
    )
    assert code == EXIT_OK
    dense = {
        (row["stage"], row["measure"], tuple(row["params"].items())): row["values"]["dense"]
        for row in doc["checks"]
    }
    assert len(doc["deltas"]) == 7
    for delta in doc["deltas"]:
        key = (delta["measure"], tuple(delta["params"].items()))
        assert delta["dense"] == dense[("final_hadamard", *key)] - dense[("hadamard", *key)]


def test_verify_fails_when_one_stage_check_disagrees(capsys, monkeypatch):
    perturb_support(monkeypatch, Stage.ORACLE)
    code, doc = run_json(capsys, ["verify", "--n", "3", "--seed", "5", "--measures", "l1p", "--ps", "2.0"])
    assert code == EXIT_MISMATCH
    assert doc["ok"] is False
    failed = [(row["stage"], row["measure"], row["params"]) for row in doc["checks"] if not row["ok"]]
    assert failed == [("oracle", "l1p", {"p": 2.0})]
    # the oracle stage feeds no delta, so every delta still agrees
    assert all(row["ok"] for row in doc["deltas"])


def test_verify_rows_show_a_wrong_support_that_no_value_shows(capsys, monkeypatch):
    # the verify twin of test_run_flags_a_wrong_support_that_no_value_shows
    perturb_support(monkeypatch, Stage.ORACLE)
    code, doc = run_json(capsys, ["verify", "--n", "3", "--seed", "5", "--measures", "tsallis", "--alphas", "0.001"])
    assert code == EXIT_MISMATCH
    (failed,) = [row for row in doc["checks"] if not row["ok"]]
    assert failed["stage"] == "oracle"
    assert failed["discrepancy"] == 0.0
    assert (failed["support"], failed["closed_form_support"]) == (8, 16)
    assert list(failed)[3:6] == ["support", "closed_form_support", "values"]


def test_verify_fails_when_a_closed_form_delta_disagrees(capsys, monkeypatch):
    # at n = 3 the hadamard (and oracle) stage matrices are 8 x 8 and the final
    # stage's 16 x 16: each skew_info check moves by 0.9e-9, inside the
    # tolerance, but the delta moves by 1.8e-9, outside it
    exact = measures.dense_coherence
    shift = {8: -0.9e-9, 16: 0.9e-9}

    def perturbed(rho, measure):
        return exact(rho, measure) + (shift.get(rho.shape[0], 0.0) if measure == SKEW_INFO else 0.0)

    monkeypatch.setattr(measures, "dense_coherence", perturbed)
    code, doc = run_json(capsys, ["verify", "--n", "3", "--seed", "5"])
    assert code == EXIT_MISMATCH
    assert doc["ok"] is False
    assert all(row["ok"] for row in doc["checks"])
    assert [row["measure"] for row in doc["deltas"] if not row["ok"]] == ["skew_info"]


def test_verify_argument_errors(capsys):
    code, _, err = run_cli(capsys, ["verify", "--seed", "0"])
    assert code == EXIT_USAGE and "--n is required" in err
    code, doc = run_json(capsys, ["verify", "--n", "2", "--s", "00", "--seed", "0"])
    assert code == EXIT_OK and doc["ok"] is True and doc["l1_conflict"] is None
    code, _, err = run_cli(capsys, ["verify", "--n", "6", "--seed", "0"])
    assert code == EXIT_CAPABILITY


# --------------------------------------------------------------------- recover


def test_recover_statistics(capsys):
    code, doc = run_json(capsys, ["recover", "--n", "3", "--trials", "20", "--seed", "2"])
    assert code == EXIT_OK
    assert doc["successes"] == 20
    assert doc["success_rate"] == 1.0
    assert doc["exhausted"] == 0
    assert doc["mean_queries"] <= 6.0
    assert sum(doc["query_histogram"].values()) == 20
    counts = [int(k) for k in doc["query_histogram"]]
    assert counts == sorted(counts)


def test_recover_with_fixed_mask(capsys):
    code, doc = run_json(
        capsys, ["recover", "--n", "4", "--s", "1001", "--trials", "5", "--seed", "3"]
    )
    assert code == EXIT_OK
    assert doc["success_rate"] == 1.0
    assert doc["max_queries_observed"] <= 4 + 20


def test_recover_exhausted_budget(capsys):
    code, doc = run_json(
        capsys, ["recover", "--n", "3", "--trials", "4", "--seed", "1", "--max-queries", "0"]
    )
    assert code == EXIT_OK
    assert doc["exhausted"] == 4
    assert doc["success_rate"] == 0.0


def test_recover_argument_errors(capsys):
    code, _, _ = run_cli(capsys, ["recover", "--trials", "3", "--seed", "0"])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, ["recover", "--n", "3", "--trials", "0", "--seed", "0"])
    assert code == EXIT_USAGE


def test_recover_rejects_negative_query_budget(capsys):
    code, out, err = run_cli(
        capsys, ["recover", "--n", "3", "--trials", "2", "--seed", "0", "--max-queries", "-5"]
    )
    assert code == EXIT_USAGE and out == ""
    assert "--max-queries" in err
    # one qubit needs no query: its only nonzero mask is 1
    code, doc = run_json(
        capsys, ["recover", "--n", "1", "--trials", "2", "--seed", "0", "--max-queries", "0"]
    )
    assert code == EXIT_OK
    assert doc["success_rate"] == 1.0


# ----------------------------------------------------------------------- sweep


def test_sweep_regime_table(capsys):
    code, doc = run_json(capsys, ["sweep", "--n-max", "6"])
    assert code == EXIT_OK
    rows = doc["rows"]
    assert [row["n"] for row in rows] == [1, 2, 3, 4, 5, 6]
    assert [row["regime"] for row in rows] == [
        "depletion",
        "neutral",
        "production",
        "production",
        "production",
        "production",
    ]
    n3 = rows[2]
    rel = next(e for e in n3["entries"] if e["measure"] == "rel_entropy")
    assert rel["hadamard"] == 3.0 and rel["final"] == 4.0 and rel["delta"] == 1.0


def test_sweep_reaches_large_dimensions(capsys):
    code, doc = run_json(capsys, ["sweep", "--n-max", "20", "--measures", "rel_entropy"])
    assert code == EXIT_OK
    top = doc["rows"][-1]
    assert top["dim"] == 2**20
    rel = top["entries"][0]
    assert rel["delta"] == 18.0


def test_sweep_argument_errors(capsys):
    code, _, _ = run_cli(capsys, ["sweep", "--n-max", "0"])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, ["sweep", "--n-max", "21"])
    assert code == EXIT_CAPABILITY


# ------------------------------------------------------------------ gen-oracle


def test_gen_oracle_output_parses(capsys):
    code, out, _ = run_cli(capsys, ["gen-oracle", "--n", "4", "--seed", "11"])
    assert code == EXIT_OK
    f = parse_function_table(out)
    assert f.n == 4 and f.s != 0
    _, again, _ = run_cli(capsys, ["gen-oracle", "--n", "4", "--seed", "11"])
    assert out == again


def test_gen_oracle_cap_is_a_capability_error(capsys):
    code, out, err = run_cli(capsys, ["gen-oracle", "--n", "21", "--seed", "0"])
    assert code == EXIT_CAPABILITY and out == ""
    assert "oracle generation is limited to n <= 20" in err
    assert "Traceback" not in err


def test_gen_oracle_bijection(capsys):
    code, out, _ = run_cli(capsys, ["gen-oracle", "--n", "2", "--s", "00", "--seed", "0"])
    assert code == EXIT_OK
    assert parse_function_table(out).s == 0


# ------------------------------------------------------------- format and misc


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, ["run", "--n", "2", "--s", "11", "--seed", "7", "--format", "csv"]
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "field,value"
    cells = dict(line.split(",", 1) for line in lines[1:])
    assert cells["config.n"] == "2"
    assert cells["config.s"] == "11"
    assert cells["config.dense"] == "true"
    assert cells["regime.regime"] == "neutral"
    assert cells["config.function_file"] == ""
    assert float(cells["stages[1].values[0].value"]) > 0.0


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["run", "--n", "2", "--s", "11", "--seed", "7", "--output", str(target)]
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["config"]["s"] == "11"


@pytest.mark.parametrize(
    "argv", [["run", "--n", "2", "--s", "11"], ["gen-oracle", "--n", "2", "--s", "11"]]
)
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, argv + ["--seed", "7", "--output", str(target)])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_usage_errors(capsys):
    assert run_cli(capsys, [])[0] == EXIT_USAGE
    assert run_cli(capsys, ["frobnicate"])[0] == EXIT_USAGE
    assert run_cli(capsys, ["run", "--n", "2", "--alphas", "abc", "--seed", "0"])[0] == EXIT_USAGE
    assert run_cli(capsys, ["run", "--n", "2", "--s", "111", "--seed", "0"])[0] == EXIT_USAGE
    assert run_cli(capsys, ["run", "--n", "2", "--measures", "bogus", "--seed", "0"])[0] == EXIT_USAGE
    assert run_cli(capsys, ["run", "--n", "2", "--alphas", "1.0", "--seed", "0"])[0] == EXIT_USAGE
    assert run_cli(capsys, ["run", "--n", "0", "--seed", "0"])[0] == EXIT_USAGE


@pytest.mark.parametrize("command", [["run", "--n", "2", "--s", "11"], ["verify", "--n", "2"],
                                     ["sweep", "--n-max", "3"]])
@pytest.mark.parametrize("panel", [["--measures", "l1,l1"], ["--measures", "l1p,rel_entropy,l1p"],
                                   ["--measures", "tsallis", "--alphas", "0.5,0.50"],
                                   ["--measures", "l1p", "--ps", "2,1,2"]])
def test_repeated_panel_entries_are_usage_errors(capsys, command, panel):
    code, out, err = run_cli(capsys, command + ["--seed", "0"] * (command[0] != "sweep") + panel)
    assert code == EXIT_USAGE
    assert out == ""
    assert "repeats" in err


def test_unused_repeated_values_do_not_repeat_the_panel(capsys):
    # --alphas only parametrises tsallis, which this panel leaves out
    code, _, _ = run_cli(capsys, ["run", "--n", "2", "--s", "11", "--seed", "0",
                                  "--measures", "l1", "--alphas", "0.5,0.5"])
    assert code == EXIT_OK


@pytest.mark.parametrize("command", [["run", "--n", "2", "--s", "11", "--seed", "0"],
                                     ["verify", "--n", "2", "--seed", "0"], ["sweep", "--n-max", "3"]])
def test_config_echoes_only_the_parameters_the_panel_uses(capsys, command):
    _, doc = run_json(capsys, command + ["--measures", "l1", "--alphas", "0.5,0.5"])
    assert doc["config"]["alphas"] == [] and doc["config"]["ps"] == []
    _, doc = run_json(capsys, command + ["--measures", "l1p,l1", "--alphas", "0.3", "--ps", "1.5,2"])
    assert doc["config"]["alphas"] == [] and doc["config"]["ps"] == [1.5, 2.0]
    _, doc = run_json(capsys, command + ["--measures", "tsallis,skew_info", "--alphas", "0.3,2"])
    assert doc["config"]["alphas"] == [0.3, 2.0] and doc["config"]["ps"] == []


def test_default_flags_build_the_default_panel():
    for argv in (["run", "--n", "2"], ["verify", "--n", "2"], ["sweep", "--n-max", "2"]):
        assert _build_panel(build_parser().parse_args(argv))[0] == DEFAULT_PANEL


def test_help_exits_cleanly(capsys):
    for argv in (["--help"], ["run", "--help"]):
        first = run_cli(capsys, argv)
        assert first[0] == EXIT_OK and "simon-coherence" in first[1]
        # the shared parser prints the same text on a later call
        assert run_cli(capsys, argv) == first


# ------------------------------------------------- shared parser, rendering


def test_main_calls_build_parser_once_per_call(capsys, monkeypatch):
    calls = []

    def counting():
        calls.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["sweep", "--n-max", "2"], ["run", "--n", "x"], ["--help"], ["gen-oracle", "--n", "2"]):
        before = len(calls)
        main(argv)
        capsys.readouterr()
        assert len(calls) == before + 1
    assert build_parser() is build_parser()


def test_a_usage_error_leaves_the_shared_parser_as_it_was(capsys):
    golden = Path(__file__).parent / "golden" / "run_n4_dense_off.json"
    build_parser.cache_clear()
    code, out, err = run_cli(capsys, ["run", "--n", "x"])
    assert code == EXIT_USAGE and out == "" and "invalid int value" in err
    code, out, err = run_cli(capsys, ["run", "--n", "4", "--s", "1010", "--seed", "2", "--dense", "off"])
    assert code == EXIT_OK and err == ""
    assert out.encode() == golden.read_bytes()


_LEAVES = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"\n\t\x00\x1f\x7f', "é ∑ 😀 \u2028"]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-320, np.float64(0.1), np.float64(math.nan)]),
)
_NODES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _NODES, max_size=5))
def test_json_renderer_is_indented_json_dumps(doc):
    assert _json(doc, "\n") == json.dumps(doc, indent=2)


# --------------------------------------------------------- small orders, NaN


@pytest.mark.parametrize("position", [0, 1, 2])
def test_agreement_flags_a_nan_in_any_position(position):
    values = [1.0, 1.0, 1.0]
    values[position] = math.nan
    spread, ok = _agreement(values)
    assert math.isnan(spread) and not ok


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--n", "5", "--alphas", "0.001,0.5"],
        ["verify", "--n", "5", "--seed", "1", "--alphas", "0.001,0.5"],
        ["sweep", "--n-max", "20", "--alphas", "0.001"],
        # log(p) / alpha overflows to -inf here, and the root 0 it gives is right
        ["run", "--n", "3", "--s", "110", "--measures", "tsallis", "--alphas", "1e-320"],
        ["verify", "--n", "3", "--s", "110", "--measures", "tsallis", "--alphas", "1e-320"],
    ],
)
def test_small_tsallis_orders_run_clean(capsys, argv):
    # a numpy RuntimeWarning would reach the CLI's stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run_json(capsys, argv)
    assert code == EXIT_OK
    text = json.dumps(doc)
    assert "NaN" not in text and "Infinity" not in text
    assert not any(row["flagged"] for row in doc.get("discrepancies", []))
    assert doc.get("ok", True)
