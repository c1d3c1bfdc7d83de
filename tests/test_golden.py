"""Byte-for-byte stdout of commands whose output must not drift.

Each fixture under ``tests/golden`` is the stdout of the argv beside it.  A
change that alters one on purpose regenerates it with the same argv and says
why in CHANGES.md.
"""

from pathlib import Path

import pytest

from simon_coherence.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_ARGV = {
    "sweep_n8.json": ["sweep", "--n-max", "8"],
    "sweep_n8.csv": ["sweep", "--n-max", "8", "--format", "csv"],
    "recover_n6.json": ["recover", "--n", "6", "--trials", "10", "--seed", "3"],
    "recover_n5_fixed_mask.json": ["recover", "--n", "5", "--s", "10110", "--trials", "5", "--seed", "2"],
    "gen_oracle_n4.txt": ["gen-oracle", "--n", "4", "--s", "0110", "--seed", "1"],
    "gen_oracle_n4_bijection.txt": ["gen-oracle", "--n", "4", "--s", "0000", "--seed", "1"],
    "gen_oracle_n5_drawn.txt": ["gen-oracle", "--n", "5", "--seed", "6"],
    "run_n4_dense_off.json": ["run", "--n", "4", "--s", "1010", "--seed", "2", "--dense", "off"],
    "run_n4_drawn_dense_off.json": ["run", "--n", "4", "--seed", "3", "--dense", "off"],
    "run_n12_dense_off.json": ["run", "--n", "12", "--seed", "1", "--dense", "off"],
    # Dense fixtures leave rel_entropy out: its dense value comes from the BLAS
    # eigensolver, whose last bits depend on the CPU kernel it dispatches to.
    "run_n3_dense.json": [
        "run", "--n", "3", "--s", "110", "--seed", "2", "--measures", "tsallis,l1p,skew_info,l1",
    ],
    "run_n4_bijection_dense.json": [
        "run", "--n", "4", "--s", "0000", "--seed", "2", "--measures", "tsallis,l1p,skew_info,l1",
    ],
    "verify_n3.csv": [
        "verify", "--n", "3", "--s", "101", "--seed", "5",
        "--measures", "tsallis,l1p,skew_info,l1", "--format", "csv",
    ],
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN_ARGV))
def test_stdout_matches_golden_bytes(capsys, fixture):
    assert main(GOLDEN_ARGV[fixture]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN_DIR / fixture).read_bytes()
