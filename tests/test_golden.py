"""Byte-for-byte stdout of commands whose output must not drift.

Each fixture under ``tests/golden`` is the stdout of the argv beside it in
``GOLDEN_ARGV``, checked twice: through ``main`` in this process, and in a
fresh interpreter that inherits the environment, so no state one command
leaves in the process can hide a drift.  A new golden is one ``GOLDEN_ARGV``
entry plus its fixture.  A change that alters one on purpose regenerates it
with the same argv and says why in CHANGES.md.
"""

import subprocess
import sys
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


def assert_golden(fixture: str, code: int, out: bytes, err: str) -> None:
    assert code == EXIT_OK
    assert err == ""
    assert out == (GOLDEN_DIR / fixture).read_bytes()


@pytest.mark.parametrize("fixture", sorted(GOLDEN_ARGV))
def test_stdout_matches_golden_bytes(capsys, fixture):
    code = main(GOLDEN_ARGV[fixture])
    captured = capsys.readouterr()
    assert_golden(fixture, code, captured.out.encode(), captured.err)


@pytest.mark.parametrize("fixture", sorted(GOLDEN_ARGV))
def test_fresh_process_stdout_matches_golden_bytes(fixture):
    done = subprocess.run([sys.executable, "-m", "simon_coherence.cli", *GOLDEN_ARGV[fixture]],
                          capture_output=True, check=False)
    assert_golden(fixture, done.returncode, done.stdout, done.stderr.decode())
