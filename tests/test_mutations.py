"""Circuit mutants: one plausible bug each, monkeypatched into one package
function, and the outcome the CLI meets it with.

Each row names a mutant, an argv and its outcome: ``exit 1`` (a check flags
it), ``ValueError`` (a state check refuses it) or ``survives`` (exit 0).  The
set of survivors is asserted exactly, so the test fails both when a check
weakens and when a hole closes.
"""

import json
from dataclasses import replace

import pytest

from simon_coherence import Stage, cli, closed_forms, random_two_to_one, run_stages, simon, states
from test_cli import keep_two_columns
from test_simon import assert_same_block, block_circuit


def offset_off_by_one_bit(oracle_apply):
    def mutant(psi, f):
        out = oracle_apply(psi, f)
        offsets = out.offsets.copy()
        offsets[-1] ^= 1
        return replace(out, offsets=offsets)
    return mutant


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


def final_support_halved(support):
    return lambda stage, n, s: 1 << 2 * n - 1 if stage is Stage.FINAL_HADAMARD else support(stage, n, s)


MUTANTS = {
    "offset": (simon, "oracle_apply", offset_off_by_one_bit),
    "butterfly": (states, "_butterflies", butterfly_sign_flipped),
    "collapse": (cli, "measure_second_register", lambda measure: keep_two_columns),
    "exponent": (simon, "oracle_apply", exponent_off_by_one),
    "final_support": (closed_forms, "support", final_support_halved),
}

RUN = ("run", "--n", "4", "--s", "1010", "--seed", "2", "--dense", "on",
       "--measures", "tsallis,l1p,rel_entropy,skew_info,l1")
VERIFY = ("verify", "--n", "4", "--s", "1010")
RECOVER = ("recover", "--n", "6", "--trials", "20")

ROWS = {
    # the oracle stage's column no longer holds f^-1(z), which the staged check reads;
    # recover runs no staged check, and no Born law reads the offsets
    ("offset", RUN): "exit 1",
    ("offset", VERIFY): "exit 1",
    ("offset", RECOVER): "survives",
    # the first layer's column no longer repeats on f^-1(f(0)), so the oracle refuses it
    ("butterfly", RUN): "ValueError",
    ("butterfly", RECOVER): "ValueError",
    ("collapse", RUN): "exit 1",
    ("collapse", VERIFY): "exit 1",
    # sum k^2 != 2^e
    ("exponent", RUN): "ValueError",
    ("exponent", RECOVER): "ValueError",
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
    assert {mutant for (mutant, _), seen in observed.items() if seen == "survives"} == {"offset"}


def test_the_column_block_reference_catches_the_offset_mutant(monkeypatch):
    f = random_two_to_one(4, 0b1010, 2)
    monkeypatch.setattr(simon, "oracle_apply", offset_off_by_one_bit(simon.oracle_apply))
    oracle_block = block_circuit(f, 4)[0][2]
    with pytest.raises(AssertionError):
        assert_same_block(run_stages(f)[Stage.ORACLE], oracle_block)


@pytest.mark.parametrize("mask", ["1010", "0000"])
def test_the_graph_check_flags_the_moved_column_at_the_oracle_stage_alone(capsys, monkeypatch, mask):
    # the moved column keeps every support, measure and Born law, so only the
    # oracle stage's graph check can see it, for a drawn mask and a bijection
    monkeypatch.setattr(simon, "oracle_apply", offset_off_by_one_bit(simon.oracle_apply))
    code = cli.main(["run", "--n", "4", "--s", mask, "--seed", "2", "--dense", "off"])
    doc = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_MISMATCH
    assert {row["stage"] for row in doc["discrepancies"] if row["flagged"]} == {"oracle"}
    assert all(stage["support"] == stage["closed_form_support"] for stage in doc["stages"])
