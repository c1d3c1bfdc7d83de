"""Circuit mutants: one plausible bug each, monkeypatched into one package
function, and the outcome the CLI meets it with; and a metamorphic relation
that two tables with one coset structure must meet.

Each row names a mutant, an argv and its outcome: ``exit 1`` (a check flags
it), ``ValueError`` (a state check refuses it) or ``survives`` (exit 0).  The
set of survivors is asserted exactly, so the test fails both when a check
weakens and when a hole closes.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from simon_coherence import (
    SimonFunction,
    Stage,
    cli,
    closed_forms,
    format_function_table,
    measures,
    random_two_to_one,
    run_stages,
    simon,
    states,
)
from test_cli import keep_two_columns
from test_simon import assert_same_block, block_circuit


def move_last_column(psi):
    """``psi`` with its last column's offset XOR 1: that column moves to another input pair."""
    offsets = psi.offsets.copy()
    offsets[-1] ^= 1
    return replace(psi, offsets=offsets)


def offset_off_by_one_bit(oracle_apply):
    return lambda psi, f: move_last_column(oracle_apply(psi, f))


def butterfly_sign_flipped(butterflies):
    def mutant(a):
        butterflies(a)
        a[-1] = -a[-1]
    return mutant


def exponent_off_by_one(oracle_apply):
    def mutant(psi, f):
        out = oracle_apply(psi, f)
        return replace(out, e=out.e + 1)
    return mutant


def rel_entropy_on_the_diagonal_twice(relative_entropy_coherence):
    # S(diag(rho)) - S(diag(rho)), the diagonal's entropy where the spectrum's belongs
    return lambda rho: measures._shannon_bits(np.diag(rho).real) - measures._shannon_bits(np.diag(rho).real)


def final_support_halved(support):
    return lambda stage, n, s: 1 << 2 * n - 1 if stage is Stage.FINAL_HADAMARD else support(stage, n, s)


MUTANTS = {
    "offset": (simon, "oracle_apply", offset_off_by_one_bit),
    "butterfly": (states, "_butterflies", butterfly_sign_flipped),
    "collapse": (cli, "measure_second_register", lambda measure: keep_two_columns),
    "exponent": (simon, "oracle_apply", exponent_off_by_one),
    "rel_entropy": (measures, "relative_entropy_coherence", rel_entropy_on_the_diagonal_twice),
    "final_support": (closed_forms, "support", final_support_halved),
}

RUN = ("run", "--n", "4", "--s", "1010", "--seed", "2", "--dense", "on",
       "--measures", "tsallis,l1p,rel_entropy,skew_info,l1")
VERIFY = ("verify", "--n", "4", "--s", "1010")
RECOVER = ("recover", "--n", "6", "--trials", "20")

ROWS = {
    # the oracle stage's column no longer holds f^-1(z), so run_stages's graph check
    # refuses it in every command, although no support, measure or Born law moves
    ("offset", RUN): "ValueError",
    ("offset", VERIFY): "ValueError",
    ("offset", RECOVER): "ValueError",
    # the first layer's column no longer repeats on f^-1(f(0)), so the oracle refuses it
    ("butterfly", RUN): "ValueError",
    ("butterfly", RECOVER): "ValueError",
    ("collapse", RUN): "exit 1",
    ("collapse", VERIFY): "exit 1",
    # sum k^2 != 2^e
    ("exponent", RUN): "ValueError",
    ("exponent", RECOVER): "ValueError",
    # the dense value is 0 against the pure route's log2 K; recover has no dense route
    ("rel_entropy", RUN): "exit 1",
    ("rel_entropy", VERIFY): "exit 1",
    ("final_support", RUN): "exit 1",
    ("final_support", VERIFY): "exit 1",
}


def outcome(monkeypatch, mutant: str, argv) -> str:
    module, name, make = MUTANTS[mutant]
    with monkeypatch.context() as patch:
        patch.setattr(module, name, make(getattr(module, name)))
        try:
            code = cli.main(list(argv))
        except ValueError:
            return "ValueError"
    return "survives" if code == 0 else f"exit {code}"


def test_each_mutant_meets_its_recorded_outcome(capsys, monkeypatch):
    observed = {row: outcome(monkeypatch, *row) for row in ROWS}
    capsys.readouterr()
    assert observed == ROWS
    assert {mutant for (mutant, _), seen in observed.items() if seen == "survives"} == set()


def test_the_column_block_reference_catches_the_offset_mutant():
    f = random_two_to_one(4, 0b1010, 2)
    moved = move_last_column(run_stages(f)[Stage.ORACLE])
    with pytest.raises(AssertionError):
        assert_same_block(moved, block_circuit(f, 4)[0][2])


@pytest.mark.parametrize("mask", ["1010", "0000"])
def test_run_stages_raises_unless_the_oracle_stage_holds_the_graph(monkeypatch, mask):
    # the moved column keeps every support, measure and Born law, so only the
    # graph check can see it, for a drawn mask and a bijection; it also refuses
    # the right columns in the phase form
    f = cli._oracle(4, int(mask, 2), 2)
    oracle_apply = simon.oracle_apply

    def phase_form(psi, f):
        return replace(oracle_apply(psi, f), phase=True)

    for mutant in (offset_off_by_one_bit(oracle_apply), phase_form):
        monkeypatch.setattr(simon, "oracle_apply", mutant)
        with pytest.raises(ValueError, match="the oracle stage does not hold f's graph"):
            run_stages(f)


def relabelled_and_mixed(f: SimonFunction, rng) -> SimonFunction:
    """g(x) = pi(f(Ax)) for a random permutation pi of the values and a random
    invertible GF(2) map A: g pairs x with x ^ A^-1 s, so its mask is A^-1 s."""
    xs = np.arange(1 << f.n)
    while True:
        basis = rng.integers(0, 1 << f.n, size=f.n)  # column i of A is the image of bit i
        ax = np.bitwise_xor.reduce(np.where((xs[:, None] >> np.arange(f.n)) & 1, basis, 0), axis=1)
        if np.unique(ax).size == ax.size:
            break
    pi = rng.permutation(1 << f.n)
    return SimonFunction(f.n, pi[f.table[ax]], int(np.flatnonzero(ax == f.s)[0]))


def report_without_the_labels(capsys, table) -> dict:
    """The ``run`` report of ``table``, less the fields that name its mask, its
    file and the observed value, which a relabelling moves."""
    code = cli.main(["run", "--function-file", str(table), "--seed", "1",
                     "--measures", "tsallis,l1p,skew_info,l1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    doc = json.loads(captured.out)
    del doc["config"]["s"], doc["config"]["function_file"]
    post = doc["stages"][-1]
    assert post["stage"] == "post_measure"
    del post["observed"]
    return doc


@pytest.mark.parametrize("mask", ["drawn", "bijection"])
@pytest.mark.parametrize("n", range(3, 7))
def test_a_relabelled_and_linearly_mixed_table_gives_the_same_report(capsys, tmp_path, n, mask):
    # every support, value, spread, flag and the regime depend on the coset
    # structure alone, which pi and A keep; rel_entropy stays out for the BLAS
    # reason the dense goldens give
    f = cli._oracle(n, 0 if mask == "bijection" else None, seed=n)
    g = relabelled_and_mixed(f, np.random.default_rng([n, f.s]))
    assert (g.s == 0) == (f.s == 0) and not np.array_equal(g.table, f.table)
    reports = []
    for name, h in (("f.txt", f), ("g.txt", g)):
        (tmp_path / name).write_text(format_function_table(h))
        reports.append(report_without_the_labels(capsys, tmp_path / name))
    assert reports[0] == reports[1]
