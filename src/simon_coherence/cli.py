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
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import Counter
from itertools import groupby
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
from .tolerances import MAX_CLOSED_FORM_BITS, MAX_DENSE_QUBITS, MAX_ORACLE_BITS, MAX_SIM_QUBITS, TOL

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


def _parse_mask(s_text: str, n: int) -> int:
    if len(s_text) != n:
        raise UsageError(f"--s must be exactly {n} bits, got {s_text!r}")
    try:
        return bits_to_int(s_text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_oracle(n: int, s: int, seed: int, *, trial: int | None = None) -> SimonFunction:
    key = (1,) if trial is None else (4, trial)
    if s == 0:
        return random_bijection(n, _subseed(seed, *key))
    return random_two_to_one(n, s, _subseed(seed, *key))


def _oracle_from_flags(args, seed: int) -> SimonFunction:
    """The oracle on ``--n`` bits with mask ``--s``, or with a nonzero mask drawn
    from the seed when ``--s`` is omitted."""
    if args.s is not None:
        s = _parse_mask(args.s, args.n)
    else:
        s = int(np.random.default_rng(_subseed(seed, 0)).integers(1, 1 << args.n))
    return _build_oracle(args.n, s, seed)


def _load_oracle(args, seed: int) -> SimonFunction:
    if getattr(args, "function_file", None):
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
    _require_n(args.n, MAX_SIM_QUBITS, "state-vector simulation")
    return _oracle_from_flags(args, seed)


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


def _stage_sequence(f: SimonFunction, seed: int):
    stages = run_stages(f)
    observed, collapsed = measure_second_register(stages[Stage.ORACLE], f, _subseed(seed, 2))
    return [*stages.items(), (Stage.POST_MEASURE, hadamard_first_register(collapsed))], observed


class _Check(NamedTuple):
    stage: Stage
    measure: CoherenceMeasure
    values: dict[str, float]
    spread: float
    ok: bool


def _agreement(values) -> tuple[float, bool]:
    """The spread between values that must agree, and whether it is below
    TOL.cross_method; a NaN among the values makes the spread NaN, which fails."""
    spread = math.nan if any(map(math.isnan, values)) else float(max(values) - min(values))
    return spread, spread < TOL.cross_method


def _cross_checks(stages, f: SimonFunction, panel, dense_on: bool):
    """One ``_Check`` per stage and panel measure: the value by every route that
    applies, keyed by method in report order (dense, pure, closed form), with
    the spread between them.  ``stages`` holds (stage, state) pairs; one
    density matrix is built per stage."""
    for stage, state in stages:
        rho = density_of(state) if dense_on else None
        for measure in panel:
            closed = closed_forms.stage_coherence(stage, 1 << f.n, f.s, measure)
            values = {METHOD_DENSE: measures.dense_coherence(rho, measure)} if dense_on else {}
            values[METHOD_PURE] = measures.pure_state_coherence(state, measure)
            if closed is not None:
                values[METHOD_CLOSED] = closed
            yield _Check(stage, measure, values, *_agreement(values.values()))


def cmd_run(args) -> int:
    seed = _resolve_seed(args.seed)
    panel, panel_config = _build_panel(args)
    f = _load_oracle(args, seed)
    _require_n(f.n, MAX_SIM_QUBITS, "state-vector simulation")
    dense_on = _dense_enabled(args.dense, f.n)

    ordered, observed = _stage_sequence(f, seed)
    checks = list(_cross_checks(ordered, f, panel, dense_on))
    stage_entries = []
    for stage, group in groupby(checks, key=attrgetter("stage")):
        group = list(group)
        entry = {"stage": stage.value}
        if stage is Stage.POST_MEASURE:
            entry["observed"] = int_to_bits(observed, f.n)
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
    f = _oracle_from_flags(args, seed)
    if f.s == 0:
        raise UsageError("verify requires a nonzero mask; the final-stage closed forms assume one")

    stages = run_stages(f)
    verified = (Stage.HADAMARD, Stage.ORACLE, Stage.FINAL_HADAMARD)
    checks = list(_cross_checks(((stage, stages[stage]) for stage in verified), f, panel, True))
    dense = {(check.stage, check.measure): check.values[METHOD_DENSE] for check in checks}

    deltas = []
    for measure in panel:
        closed_delta = closed_forms.coherence_delta(1 << f.n, measure)
        dense_delta = dense[Stage.FINAL_HADAMARD, measure] - dense[Stage.HADAMARD, measure]
        spread, ok = _agreement((closed_delta, dense_delta))
        deltas.append(
            _measure_json(measure)
            | {"closed_form": float(closed_delta), "dense": float(dense_delta)}
            | {"discrepancy": spread, "ok": ok}
        )

    conflict = _l1_conflict_report(seed)
    all_ok = (
        all(check.ok for check in checks)
        and all(row["ok"] for row in deltas)
        and conflict["confirmed"] == L1_QUARTER_FORM
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
            | {"values": check.values, "discrepancy": check.spread, "ok": check.ok}
            for check in checks
        ],
        "deltas": deltas,
        "l1_conflict": conflict,
        "ok": all_ok,
    }
    _emit(_render(doc, args.format), args.output)
    return EXIT_OK if all_ok else EXIT_MISMATCH


def _l1_conflict_report(seed: int) -> dict:
    """Resolve the two candidate final-stage l1 closed forms by dense evaluation."""
    evidence = []
    confirmed = L1_QUARTER_FORM
    for n_probe, mask in ((2, 0b11), (3, 0b110)):
        f = random_two_to_one(n_probe, mask, _subseed(seed, 7, n_probe))
        rho = density_of(run_stages(f)[Stage.FINAL_HADAMARD])
        dense_value = measures.l1_coherence(rho)
        candidates = closed_forms.final_stage_l1_candidates(1 << n_probe)
        _, quarter_ok = _agreement((dense_value, candidates["quarter_form"]))
        _, half_ok = _agreement((dense_value, candidates["half_form"]))
        matches = L1_QUARTER_FORM if quarter_ok else (L1_HALF_FORM if half_ok else "neither")
        if matches != L1_QUARTER_FORM:
            confirmed = matches
        evidence.append(
            {
                "n": n_probe,
                "dense_l1": float(dense_value),
                "quarter_form": float(candidates["quarter_form"]),
                "half_form": float(candidates["half_form"]),
                "matches": matches,
            }
        )
    note = (
        "final-stage l1 closed form has two published candidates, "
        f"{L1_QUARTER_FORM} and {L1_HALF_FORM}; dense evaluation gives "
        f"{evidence[0]['dense_l1']:g} at n=2 and {evidence[1]['dense_l1']:g} at n=3, "
        f"confirming {confirmed} and ruling out "
        f"{L1_HALF_FORM if confirmed == L1_QUARTER_FORM else L1_QUARTER_FORM}"
    )
    return {
        "candidates": {"quarter_form": L1_QUARTER_FORM, "half_form": L1_HALF_FORM},
        "evidence": evidence,
        "confirmed": confirmed,
        "note": note,
    }


def cmd_recover(args) -> int:
    seed = _resolve_seed(args.seed)
    _require_n(args.n, MAX_SIM_QUBITS, "state-vector simulation")
    if args.trials < 1:
        raise UsageError(f"--trials must be positive, got {args.trials}")
    if args.max_queries is not None and args.max_queries < 0:
        raise UsageError(f"--max-queries must not be negative, got {args.max_queries}")
    fixed_mask = _parse_mask(args.s, args.n) if args.s is not None else None

    successes = 0
    queries = []
    exhausted = 0
    for trial in range(args.trials):
        if fixed_mask is not None:
            mask = fixed_mask
        else:
            rng = np.random.default_rng(_subseed(seed, 6, trial))
            mask = int(rng.integers(1, 1 << args.n))
        f = _build_oracle(args.n, mask, seed, trial=trial)
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
    _require_n(args.n_max, MAX_CLOSED_FORM_BITS, "closed-form sweep", "--n-max")
    rows = []
    for n in range(1, args.n_max + 1):
        dim = 1 << n
        verdict = closed_forms.classify_regime(dim)
        entries = [
            _measure_json(measure)
            | {
                "hadamard": float(closed_forms.hadamard_stage_coherence(dim, measure)),
                "final": float(closed_forms.final_stage_coherence(dim, measure)),
                "delta": float(closed_forms.coherence_delta(dim, measure)),
            }
            for measure in panel
        ]
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
    _emit(format_function_table(_oracle_from_flags(args, seed)), args.output)
    return EXIT_OK


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["field", "value"])
    for field, value in _flatten(doc):
        writer.writerow([field, value])
    return buffer.getvalue()


def _flatten(node, prefix: str = ""):
    rows: list[tuple[str, str]] = []
    if isinstance(node, dict):
        for key, value in node.items():
            rows.extend(_flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            rows.extend(_flatten(value, f"{prefix}[{index}]"))
    else:
        rows.append((prefix, _format_scalar(node)))
    return rows


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


def build_parser() -> argparse.ArgumentParser:
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
    verify_p.add_argument("--s", default=None, help="hidden mask as an n-bit string (nonzero)")
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
