"""Command line: run the staged simulation, verify closed forms, recover masks.

Subcommands
-----------
run         simulate one oracle and report coherences at every stage
verify      cross-check dense values against the closed forms (n <= 5)
recover     repeated mask recovery with query statistics
sweep       closed-form table over dimensions 2, 4, ..., 2^n_max
gen-oracle  write a function table in the text format

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 capability
error.  ``--seed`` falls back to the SIMON_COHERENCE_SEED environment
variable, then to 0, so identical invocations produce identical bytes; a
negative seed is a usage error.

A JSON report is the bytes of ``json.dumps(report, indent=2)``, written by
``_json`` without json's pure-Python indent encoder.  The parser is built by
the first ``build_parser()`` call and kept for the process, so a library
caller of ``main`` pays for it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from collections import Counter
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import closed_forms, measures
from .measures import DEFAULT_PANEL, FAMILIES, METHOD_CLOSED, METHOD_DENSE, METHOD_PURE, CoherenceMeasure
from .recovery import recover
from .simon import (
    FunctionTableError,
    SimonFunction,
    Stage,
    bits_to_int,
    format_function_table,
    int_to_bits,
    measure_second_register,
    parse_function_table,
    random_bijection,
    random_two_to_one,
    run_stages,
)
from .states import density_of, hadamard_first_register
from .tolerances import MAX_DENSE_QUBITS, MAX_ORACLE_BITS, TOL

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3

SEED_ENV_VAR = "SIMON_COHERENCE_SEED"

# the flag defaults that rebuild measures.DEFAULT_PANEL, the panel the regime is read from
DEFAULT_FAMILIES = ",".join(dict.fromkeys(measure.kind for measure in DEFAULT_PANEL))
DEFAULT_ALPHAS = ",".join(str(measure.param) for measure in DEFAULT_PANEL if measure.kind == "tsallis")
DEFAULT_PS = ",".join(str(measure.param) for measure in DEFAULT_PANEL if measure.kind == "l1p")

L1_QUARTER_FORM = "N^2/4-1"
L1_HALF_FORM = "N^2/2-1"


class UsageError(Exception):
    pass


class CapabilityError(Exception):
    pass


def _resolve_seed(seed: int | None) -> int:
    source = "--seed"
    if seed is None:
        source, env = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    if seed < 0:
        raise UsageError(f"{source} must not be negative, got {seed}")
    return seed


def _subseed(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=key)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} must not be empty")
    return values


def _build_panel(args) -> tuple[tuple[CoherenceMeasure, ...], dict]:
    """The panel named by --measures, one entry per --alphas or --ps value of a
    parametrised family, and the report's config fields that describe it."""
    values = {"alpha": _parse_floats(args.alphas, "--alphas"), "p": _parse_floats(args.ps, "--ps")}
    panel: list[CoherenceMeasure] = []
    try:
        for kind in (part.strip() for part in args.measures.split(",") if part.strip()):
            if kind not in FAMILIES:
                raise UsageError(f"unknown measure {kind!r}; choose from {', '.join(FAMILIES)}")
            family = FAMILIES[kind]
            if family is None:
                panel.append(CoherenceMeasure(kind))
            else:
                panel.extend(CoherenceMeasure(kind, value) for value in values[family[0]])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not panel:
        raise UsageError("--measures produced an empty panel")
    for i, measure in enumerate(panel):
        if measure in panel[:i]:
            raise UsageError(f"panel repeats {measure.label()}; name each measure and value once")
    # a family the panel leaves out echoes no values
    config = {
        "alphas": [float(m.param) for m in panel if m.kind == "tsallis"],
        "ps": [float(m.param) for m in panel if m.kind == "l1p"],
        "measures": [m.label() for m in panel],
    }
    return tuple(panel), config


def _require_n(n: int | None, cap: int, what: str, flag: str = "--n") -> None:
    if n is None:
        raise UsageError(f"{flag} is required")
    if n < 1:
        raise UsageError(f"{flag} must be at least 1, got {n}")
    if n > cap:
        raise CapabilityError(f"{what} is limited to n <= {cap}, got n={n}")


def _parse_mask(s_text: str | None, n: int) -> int | None:
    if s_text is None:
        return None
    if len(s_text) != n:
        raise UsageError(f"--s must be exactly {n} bits, got {s_text!r}")
    try:
        return bits_to_int(s_text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _oracle(n: int, mask: int | None, seed: int, mask_key=(0,), oracle_key=(1,)) -> SimonFunction:
    """The oracle on ``n`` bits with hidden ``mask``, or with a nonzero mask drawn
    under ``mask_key`` when it is None; mask 0 gives a bijection.  The table is
    drawn under ``oracle_key``."""
    if mask is None:
        mask = int(np.random.default_rng(_subseed(seed, *mask_key)).integers(1, 1 << n))
    if mask == 0:
        return random_bijection(n, _subseed(seed, *oracle_key))
    return random_two_to_one(n, mask, _subseed(seed, *oracle_key))


def _load_oracle(args, seed: int) -> SimonFunction:
    if args.function_file is not None:
        try:
            text = Path(args.function_file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {args.function_file}: {exc}") from None
        f = parse_function_table(text)
        if args.n is not None and args.n != f.n:
            raise UsageError(f"--n {args.n} conflicts with function file header n={f.n}")
        if args.s is not None and _parse_mask(args.s, f.n) != f.s:
            raise UsageError(f"--s {args.s} conflicts with function file header")
        return f
    if args.n is None:
        raise UsageError("--n is required when no --function-file is given")
    _require_n(args.n, MAX_ORACLE_BITS, "circuit simulation")
    return _oracle(args.n, _parse_mask(args.s, args.n), seed)


def _dense_enabled(mode: str, n: int) -> bool:
    if mode == "off":
        return False
    if mode == "on":
        _require_n(n, MAX_DENSE_QUBITS, "dense density-matrix path")
        return True
    return n <= MAX_DENSE_QUBITS


def _measure_json(measure: CoherenceMeasure) -> dict:
    return {"measure": measure.kind, "params": measure.params_dict()}


def _regime_json(dim: int) -> dict:
    verdict = closed_forms.classify_regime(dim)
    return {
        "dim": dim,
        "regime": verdict.regime,
        "deltas": [
            _measure_json(measure) | {"value": float(value)}
            for measure, value in verdict.deltas.items()
        ],
    }


def _staged_checks(f: SimonFunction, seed: int, panel, dense_on: bool):
    """Every stage of ``f``'s circuit checked by every route: the ``_Check``
    rows in stage order, the observed second-register value, and the final
    stage's density matrix (None when dense is off).  Each stage's matrix is
    built once."""
    stages = run_stages(f)
    observed, collapsed = measure_second_register(stages[Stage.ORACLE], _subseed(seed, 2))
    checks, final_rho = [], None
    for stage, state in [*stages.items(), (Stage.POST_MEASURE, hadamard_first_register(collapsed))]:
        rho = density_of(state) if dense_on else None
        if stage is Stage.FINAL_HADAMARD:
            final_rho = rho
        checks += _cross_checks(stage, state, f, panel, rho)
    return checks, observed, final_rho


class _Check(NamedTuple):
    stage: Stage
    measure: CoherenceMeasure
    values: dict[str, float]
    spread: float
    ok: bool
    support: int
    closed_support: int


def _agreement(values) -> tuple[float, bool]:
    """The spread between values that must agree, and whether it is below
    TOL.cross_method; a NaN among the values makes the spread NaN, which fails."""
    spread = math.nan if any(map(math.isnan, values)) else float(max(values) - min(values))
    return spread, spread < TOL.cross_method


def _cross_checks(stage: Stage, state, f: SimonFunction, panel, rho) -> list[_Check]:
    """One ``_Check`` per panel measure at ``stage``: the value by every route,
    keyed by method in report order (dense on the density matrix ``rho``
    unless it is None, pure, closed form at the support
    ``closed_forms.support`` gives the stage), and the spread between them.
    It is ok when the state has that support and the spread is below
    TOL.cross_method."""
    closed_support = closed_forms.support(stage, f.n, f.s)
    exact = state.support == closed_support
    checks = []
    for measure in panel:
        values = {} if rho is None else {METHOD_DENSE: measures.dense_coherence(rho, measure)}
        values[METHOD_PURE] = measures.pure_state_coherence(state, measure)
        values[METHOD_CLOSED] = measures.uniform_superposition_coherence(closed_support, measure)
        spread, ok = _agreement(values.values())
        checks.append(_Check(stage, measure, values, spread, ok and exact, state.support, closed_support))
    return checks


def cmd_run(args) -> int:
    seed = _resolve_seed(args.seed)
    panel, panel_config = _build_panel(args)
    f = _load_oracle(args, seed)
    dense_on = _dense_enabled(args.dense, f.n)

    checks, observed, _ = _staged_checks(f, seed, panel, dense_on)
    stage_entries = []
    for stage, group in groupby(checks, key=attrgetter("stage")):
        group = list(group)
        entry = {"stage": stage.value}
        if stage is Stage.POST_MEASURE:
            entry["observed"] = int_to_bits(observed, f.n)
        entry["support"] = group[0].support
        entry["closed_form_support"] = group[0].closed_support
        entry["max_discrepancy"] = max(check.spread for check in group)
        entry["values"] = [
            _measure_json(check.measure) | {"method": method, "value": value}
            for check in group
            for method, value in check.values.items()
        ]
        stage_entries.append(entry)

    doc = {
        "config": {
            "command": "run",
            "n": f.n,
            "s": int_to_bits(f.s, f.n),
            "seed": seed,
            **panel_config,
            "format": args.format,
            "function_file": args.function_file,
            "dense": dense_on,
        },
        "stages": stage_entries,
        "regime": _regime_json(1 << f.n) if f.s != 0 else None,
        "discrepancies": [
            {"stage": check.stage.value}
            | _measure_json(check.measure)
            | {"max_difference": check.spread, "flagged": not check.ok}
            for check in checks
        ],
    }
    _emit(_render(doc, args.format), args.output)
    return EXIT_OK if all(check.ok for check in checks) else EXIT_MISMATCH


def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    panel, panel_config = _build_panel(args)
    _require_n(args.n, MAX_DENSE_QUBITS, "verify, which needs the dense path,")
    f = _oracle(args.n, _parse_mask(args.s, args.n), seed)

    checks, _, final_rho = _staged_checks(f, seed, panel, dense_on=True)
    values = {(check.stage, check.measure): check.values for check in checks}

    deltas = []
    for measure in panel:
        final, hadamard = values[Stage.FINAL_HADAMARD, measure], values[Stage.HADAMARD, measure]
        delta = {method: final[method] - hadamard[method] for method in (METHOD_CLOSED, METHOD_DENSE)}
        spread, ok = _agreement(delta.values())
        deltas.append(_measure_json(measure) | delta | {"discrepancy": spread, "ok": ok})

    # a bijection's final support is N^2, which neither candidate l1 form describes
    conflict = _l1_verdict(f.n, measures.l1_coherence(final_rho)) if f.s else None
    all_ok = (
        all(check.ok for check in checks)
        and all(row["ok"] for row in deltas)
        and (conflict is None or conflict["confirmed"] == L1_QUARTER_FORM)
    )

    doc = {
        "config": {
            "command": "verify",
            "n": f.n,
            "s": int_to_bits(f.s, f.n),
            "seed": seed,
            **panel_config,
            "format": args.format,
        },
        "checks": [
            {"stage": check.stage.value}
            | _measure_json(check.measure)
            | {"support": check.support, "closed_form_support": check.closed_support}
            | {"values": check.values, "discrepancy": check.spread, "ok": check.ok}
            for check in checks
        ],
        "deltas": deltas,
        "l1_conflict": conflict,
        "ok": all_ok,
    }
    _emit(_render(doc, args.format), args.output)
    return EXIT_OK if all_ok else EXIT_MISMATCH


def _l1_verdict(n: int, dense_value: float) -> dict:
    """Which candidate final-stage l1 closed form ``dense_value``, the dense l1
    of the run's own final stage, agrees with, and the forms it rules out."""
    candidates = closed_forms.final_stage_l1_candidates(1 << n)
    forms = {L1_QUARTER_FORM: candidates["quarter_form"], L1_HALF_FORM: candidates["half_form"]}
    missed = [form for form, value in forms.items() if not _agreement((dense_value, value))[1]]
    confirmed = next((form for form in forms if form not in missed), "neither")
    note = (
        "final-stage l1 closed form has two published candidates, "
        f"{L1_QUARTER_FORM} and {L1_HALF_FORM}; dense evaluation gives {dense_value:g} at n={n}, "
        f"confirming {confirmed} and ruling out {' and '.join(missed)}"
    )
    return {
        "candidates": {"quarter_form": L1_QUARTER_FORM, "half_form": L1_HALF_FORM},
        "evidence": [
            {
                "n": n,
                "dense_l1": dense_value,
                "quarter_form": float(candidates["quarter_form"]),
                "half_form": float(candidates["half_form"]),
                "matches": confirmed,
            }
        ],
        "confirmed": confirmed,
        "note": note,
    }


def cmd_recover(args) -> int:
    seed = _resolve_seed(args.seed)
    _require_n(args.n, MAX_ORACLE_BITS, "circuit simulation")
    if args.trials < 1:
        raise UsageError(f"--trials must be positive, got {args.trials}")
    if args.max_queries is not None and args.max_queries < 0:
        raise UsageError(f"--max-queries must not be negative, got {args.max_queries}")
    mask = _parse_mask(args.s, args.n)

    successes = 0
    queries = []
    exhausted = 0
    for trial in range(args.trials):
        f = _oracle(args.n, mask, seed, mask_key=(6, trial), oracle_key=(4, trial))
        report = recover(f, _subseed(seed, 5, trial), args.max_queries)
        if report.s_hat is None:
            exhausted += 1
        elif report.s_hat == f.s:
            successes += 1
        queries.append(report.queries)

    doc = {
        "config": {
            "command": "recover",
            "n": args.n,
            "s": args.s,
            "seed": seed,
            "trials": args.trials,
            "max_queries": args.max_queries,
            "format": args.format,
        },
        "trials": args.trials,
        "successes": successes,
        "success_rate": successes / args.trials,
        "mean_queries": float(np.mean(queries)),
        "max_queries_observed": int(max(queries)),
        "exhausted": exhausted,
        "query_histogram": {str(k): count for k, count in sorted(Counter(queries).items())},
    }
    _emit(_render(doc, args.format), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    panel, panel_config = _build_panel(args)
    _require_n(args.n_max, MAX_ORACLE_BITS, "closed-form sweep", "--n-max")
    rows = []
    for n in range(1, args.n_max + 1):
        dim = 1 << n
        verdict = closed_forms.classify_regime(dim)
        entries = []
        for measure in panel:
            # the delta is final - hadamard, the subtraction coherence_delta makes
            hadamard = float(closed_forms.hadamard_stage_coherence(dim, measure))
            final = float(closed_forms.final_stage_coherence(dim, measure))
            delta = final - hadamard
            entries.append(_measure_json(measure) | {"hadamard": hadamard, "final": final, "delta": delta})
        rows.append({"n": n, "dim": dim, "regime": verdict.regime, "entries": entries})
    doc = {
        "config": {
            "command": "sweep",
            "n_max": args.n_max,
            **panel_config,
            "format": args.format,
        },
        "rows": rows,
    }
    _emit(_render(doc, args.format), args.output)
    return EXIT_OK


def cmd_gen_oracle(args) -> int:
    seed = _resolve_seed(args.seed)
    _require_n(args.n, MAX_ORACLE_BITS, "oracle generation")
    _emit(format_function_table(_oracle(args.n, _parse_mask(args.s, args.n), seed)), args.output)
    return EXIT_OK


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(doc, "\n") + "\n"
    rows = [("field", "value")]
    _flatten(doc, "", rows)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _json(node, newline: str) -> str:
    """``json.dumps(node, indent=2)`` byte for byte, for a node whose dict keys
    are strings and which starts after ``newline`` (a line break and the
    node's indent).  ``indent`` sends json to its pure-Python encoder; here
    only the containers are walked in Python, tested in json's order, and
    every leaf goes through json's C code, ``float.__repr__`` or
    ``int.__repr__``, or is one of the literals true, false and null."""
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    if type(node) is float and math.isfinite(node):
        return float.__repr__(node)
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json(item, inner) for item in node]) + newline + "]"
    if isinstance(node, dict):
        if not node:
            return "{}"
        inner = newline + "  "
        items = [f"{encode_basestring_ascii(key)}: {_json(value, inner)}" for key, value in node.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(node) is int:
        return int.__repr__(node)
    if node is None or type(node) is bool:
        return "null" if node is None else "true" if node else "false"
    return json.dumps(node)


def _flatten(node, prefix: str, rows: list[tuple[str, str]]) -> None:
    """Append one (field, value) row per leaf of ``node`` to ``rows``."""
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(value, f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            _flatten(value, f"{prefix}[{index}]", rows)
    else:
        rows.append((prefix, _format_scalar(node)))


def _format_scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc}") from None
    else:
        sys.stdout.write(text)


def _add_common(parser, *, n_flag=True, seed=True, panel=True, fmt=True) -> None:
    if n_flag:
        parser.add_argument("--n", type=int, default=None, help="first-register qubit count")
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="deterministic seed")
    if panel:
        parser.add_argument("--alphas", default=DEFAULT_ALPHAS, help="comma-separated Tsallis orders")
        parser.add_argument("--ps", default=DEFAULT_PS, help="comma-separated matrix-norm exponents")
        parser.add_argument(
            "--measures",
            default=DEFAULT_FAMILIES,
            help=f"comma-separated families from {{{','.join(FAMILIES)}}}",
        )
    if fmt:
        parser.add_argument("--format", choices=("json", "csv"), default="json")
        parser.add_argument("--output", default=None, help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process.  Each subcommand's ``handler`` default is bound
    to its ``cmd_*`` function when the parser is built, so replacing a
    ``cmd_*`` afterwards does not reach ``main``."""
    parser = argparse.ArgumentParser(
        prog="simon-coherence",
        description="Stage-by-stage coherence analysis of the two-register hidden-mask circuit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one oracle and report stage coherences")
    _add_common(run_p)
    run_p.add_argument("--s", default=None, help="hidden mask as an n-bit string; all zeros runs a bijection")
    run_p.add_argument("--function-file", default=None, help="load the oracle from a function table")
    run_p.add_argument("--dense", choices=("auto", "on", "off"), default="auto")
    run_p.set_defaults(handler=cmd_run)

    verify_p = sub.add_parser("verify", help="cross-check dense values against closed forms")
    _add_common(verify_p)
    verify_p.add_argument("--s", default=None, help="hidden mask as an n-bit string; all zeros runs a bijection")
    verify_p.set_defaults(handler=cmd_verify)

    recover_p = sub.add_parser("recover", help="repeated mask recovery with query statistics")
    _add_common(recover_p, panel=False)
    recover_p.add_argument("--s", default=None, help="fixed mask; omitted means a fresh random mask per trial")
    recover_p.add_argument("--trials", type=int, default=100)
    recover_p.add_argument("--max-queries", type=int, default=None)
    recover_p.set_defaults(handler=cmd_recover)

    sweep_p = sub.add_parser("sweep", help="closed-form table over dimensions 2..2^n_max")
    _add_common(sweep_p, n_flag=False, seed=False)
    sweep_p.add_argument("--n-max", type=int, required=True)
    sweep_p.set_defaults(handler=cmd_sweep)

    gen_p = sub.add_parser("gen-oracle", help="write a function table in the text format")
    _add_common(gen_p, panel=False, fmt=False)
    gen_p.add_argument("--s", default=None, help="hidden mask as an n-bit string; all zeros makes a bijection")
    gen_p.add_argument("--output", default=None, help="write the table here instead of stdout")
    gen_p.set_defaults(handler=cmd_gen_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FunctionTableError as exc:
        print(f"error: invalid function table: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
