"""The CLI invocations each workload makes, and the check applied to each output.

A workload is a warm-up list plus an endless sequence of cycles.  Every op in
it is one ``simon_coherence.cli.main(argv)`` call; the inputs (masks and
``--seed`` values) come from a ``random.Random`` seeded by the workload name
and the benchmark seed, so the same seed always gives the same argv.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ALL_MEASURES = "tsallis,l1p,rel_entropy,skew_info,l1"
L1_CONFIRMED = "N^2/4-1"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must show."""

    check: str  # name of the check in CHECKS
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Checked:
    """Outcome of one output check; ``spread`` is the largest cross-route difference printed."""

    error: str | None
    spread: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Callable[[random.Random, Path], list[Op]]
    cycle: Callable[[random.Random, int, Path], list[Op]]


def _bits(value: int, n: int) -> str:
    return format(value, f"0{n}b")


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 31))


def _run(n: int, mask: int, rng: random.Random, *extra: str) -> Op:
    return Op("run", ("run", "--n", str(n), "--s", _bits(mask, n), "--seed", _seed(rng), *extra),
              {"n": n, "s": mask})


def _verify(n: int, rng: random.Random) -> Op:
    mask = rng.randrange(1, 1 << n)
    return Op("verify", ("verify", "--n", str(n), "--s", _bits(mask, n), "--seed", _seed(rng)))


def _recover(n: int, trials: int, rng: random.Random) -> Op:
    return Op("recover", ("recover", "--n", str(n), "--trials", str(trials), "--seed", _seed(rng)),
              {"trials": trials})


# statevector-n11: the largest state the CLI accepts, no dense or GF(2) work.
SV_N = 11


def _statevector_warmup(rng, tmp):
    return [_run(SV_N, rng.randrange(1, 1 << SV_N), rng)]


def _statevector_cycle(rng, index, tmp):
    table = str(tmp / "oracle.txt")
    # odd cycles write a bijection table, so every run of two cycles has one
    table_mask = 0 if index % 2 else rng.randrange(1, 1 << SV_N)
    return [
        Op("gen-oracle",
           ("gen-oracle", "--n", str(SV_N), "--s", _bits(table_mask, SV_N), "--seed", _seed(rng),
            "--output", table),
           {"n": SV_N, "s": table_mask, "path": table}),
        Op("run", ("run", "--function-file", table, "--seed", _seed(rng)), {"n": SV_N, "s": table_mask}),
        _run(SV_N, rng.randrange(1, 1 << SV_N), rng),
    ]


# dense-n5: the dense cap, 1024x1024 density matrices.
DENSE_N = 5


def _dense_warmup(rng, tmp):
    return [_verify(DENSE_N, rng)]


def _dense_cycle(rng, index, tmp):
    return [
        _verify(DENSE_N, rng),
        _run(DENSE_N, rng.randrange(1, 1 << DENSE_N), rng, "--measures", ALL_MEASURES),
    ]


# recovery-n10: a fresh random mask per trial (recover draws it when --s is omitted).
RECOVERY_N = 10
RECOVERY_TRIALS = 10


def _recovery_warmup(rng, tmp):
    return [_recover(RECOVERY_N, RECOVERY_TRIALS, rng)]


def _recovery_cycle(rng, index, tmp):
    return [_recover(RECOVERY_N, RECOVERY_TRIALS, rng)]


# interactive-small: the README-sized mix, where CLI overhead dominates.
SWEEP_N_MAX = 20


def _small_cycle(rng, index, tmp):
    table_mask = rng.randrange(1 << 6)
    return [
        _run(3, rng.randrange(1, 8), rng),
        _verify(3, rng),
        Op("run-csv",
           ("run", "--n", "2", "--s", _bits(rng.randrange(1, 4), 2), "--seed", _seed(rng),
            "--format", "csv", "--measures", ALL_MEASURES)),
        _recover(6, 20, rng),
        Op("sweep-csv", ("sweep", "--n-max", str(SWEEP_N_MAX), "--format", "csv"), {"n_max": SWEEP_N_MAX}),
        Op("gen-oracle", ("gen-oracle", "--n", "6", "--s", _bits(table_mask, 6), "--seed", _seed(rng)),
           {"n": 6, "s": table_mask}),
    ]


def _small_warmup(rng, tmp):
    return _small_cycle(rng, -1, tmp)


# Why each workload exists is stated once, in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("statevector-n11", _statevector_warmup, _statevector_cycle),
        Workload("dense-n5", _dense_warmup, _dense_cycle),
        Workload("recovery-n10", _recovery_warmup, _recovery_cycle),
        Workload("interactive-small", _small_warmup, _small_cycle),
    )
}


def cycles(workload: Workload, rng: random.Random, tmp: Path):
    """Endless cycles of ops; each cycle draws its inputs from ``rng`` in turn."""
    index = 0
    while True:
        yield workload.cycle(rng, index, tmp)
        index += 1


# ---- output checks -------------------------------------------------------


def check(op: Op, exit_code: int | None, stdout: str) -> Checked:
    """An op passes when it exits 0 and its output shows what its command promises."""
    if exit_code != 0:
        return Checked(f"exit code {exit_code}")
    try:
        return CHECKS[op.check](op, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output is a failed check
        return Checked(f"unreadable output: {type(exc).__name__}: {exc}")


def _check_run(op, stdout):
    doc = json.loads(stdout)
    config = doc["config"]
    expect = op.expect
    if config["n"] != expect["n"] or config["s"] != _bits(expect["s"], expect["n"]):
        return Checked(f"run reported n={config['n']} s={config['s']}, expected {expect}")
    if len(doc["stages"]) != 5:
        return Checked(f"run reported {len(doc['stages'])} stages, expected 5")
    flagged = [d for d in doc["discrepancies"] if d["flagged"]]
    spread = max(d["max_difference"] for d in doc["discrepancies"])
    if flagged:
        return Checked(f"{len(flagged)} flagged discrepancies, first {flagged[0]}", spread)
    return Checked(None, spread)


def _csv_fields(stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["field", "value"]:
        raise ValueError(f"CSV header {rows[0]}")
    return dict(rows[1:])


def _check_run_csv(op, stdout):
    fields = _csv_fields(stdout)
    flags = {k: v for k, v in fields.items() if k.endswith(".flagged")}
    spreads = [float(v) for k, v in fields.items() if k.endswith(".max_difference")]
    if not flags or not spreads:
        return Checked("CSV run report has no discrepancies")
    raised = [k for k, v in flags.items() if v != "false"]
    if raised:
        return Checked(f"flagged discrepancies: {raised[:3]}", max(spreads))
    return Checked(None, max(spreads))


def _check_verify(op, stdout):
    doc = json.loads(stdout)
    spread = max([c["discrepancy"] for c in doc["checks"]] + [d["discrepancy"] for d in doc["deltas"]])
    confirmed = doc["l1_conflict"]["confirmed"]
    if doc["ok"] is not True or confirmed != L1_CONFIRMED:
        return Checked(f"verify ok={doc['ok']} confirmed={confirmed!r}", spread)
    return Checked(None, spread)


def _check_recover(op, stdout):
    doc = json.loads(stdout)
    if doc["trials"] != op.expect["trials"] or doc["success_rate"] != 1.0 or doc["exhausted"] != 0:
        return Checked(f"recover trials={doc['trials']} success_rate={doc['success_rate']} "
                       f"exhausted={doc['exhausted']}")
    return Checked(None)


def _expected_regime(n: int) -> str:
    return "depletion" if n == 1 else "neutral" if n == 2 else "production"


def _check_sweep_csv(op, stdout):
    fields = _csv_fields(stdout)
    n_max = op.expect["n_max"]
    for i in range(n_max):
        n = int(fields[f"rows[{i}].n"])
        regime = fields[f"rows[{i}].regime"]
        if n != i + 1 or regime != _expected_regime(n):
            return Checked(f"sweep row {i}: n={n} regime={regime}")
    if f"rows[{n_max}].n" in fields:
        return Checked(f"sweep printed more than {n_max} rows")
    return Checked(None)


def _check_gen_oracle(op, stdout):
    from simon_coherence.simon import FunctionTableError, format_function_table, parse_function_table

    path = op.expect.get("path")
    text = Path(path).read_text() if path else stdout
    try:
        f = parse_function_table(text)
    except FunctionTableError as exc:
        return Checked(f"table does not parse: {exc}")
    if f.n != op.expect["n"] or f.s != op.expect["s"]:
        return Checked(f"table header n={f.n} s={f.s}, expected {op.expect}")
    if format_function_table(f) != text:
        return Checked("table does not round-trip through parse_function_table")
    return Checked(None)


CHECKS = {
    "run": _check_run,
    "run-csv": _check_run_csv,
    "verify": _check_verify,
    "recover": _check_recover,
    "sweep-csv": _check_sweep_csv,
    "gen-oracle": _check_gen_oracle,
}
