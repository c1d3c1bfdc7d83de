"""Per-layer metrics from a traced run, their predictions, and the trace self-check.

Seconds are self time per op, counts are per op (or per recovery trial) and
repeat exactly for a seed, and ``bytes_computed`` values come from array
sizes, not from hardware counters.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracing import END, NAME, NOTE, OP, PARENT, SPANS, START, Tracer

MEASURE_KINDS = ("tsallis", "l1p", "rel_entropy", "skew_info", "l1")
SPAN_NAMES = tuple(spec.name for spec in SPANS if isinstance(spec.name, str)) + tuple(
    f"measures.pure.{kind}" for kind in MEASURE_KINDS
)

_STATE_WORK = ("op_s.p50", "ops_per_s")

# Which end-to-end metric each per-layer metric is expected to move, and on
# which workloads; on every other workload the prediction is no change.
# An empty metric tuple marks a diagnostic that predicts no end-to-end effect.
PREDICTIONS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    **dict.fromkeys(("cli.self_s", "cli.build_parser.self_s", "cli.stdout_bytes"),
                    (("op_s.p50", "op_s.p90"), ("interactive-small",))),
    **dict.fromkeys(("simon.oracle_gen.self_s", "simon.validate_function.self_s",
                     "simon.oracle_apply.self_s", "simon.oracle_apply.bytes_computed",
                     "simon.run_stages.self_s", "simon.run_stages.calls",
                     "simon.measure_second_register.self_s"),
                    (_STATE_WORK, ("statevector-n11", "recovery-n10"))),
    **dict.fromkeys(("simon.table_io.self_s", "simon.table_io.bytes"),
                    (_STATE_WORK, ("statevector-n11", "interactive-small"))),
    **dict.fromkeys(("states.hadamard_first_register.self_s", "states.hadamard_first_register.calls",
                     "states.hadamard_first_register.bytes_computed"),
                    (_STATE_WORK + ("peak_rss_mb",), ("statevector-n11", "recovery-n10"))),
    **dict.fromkeys(("states.density_of.self_s", "states.density_of.bytes_computed",
                     "states.matrix_power.self_s", "states.hermitian_eig.calls"),
                    (_STATE_WORK, ("dense-n5",))),
    "states.first_register_distribution.self_s": (("ops_per_s",), ("recovery-n10",)),
    **dict.fromkeys([f"measures.pure.{k}.self_s" for k in MEASURE_KINDS] + ["measures.pure.calls"],
                    (_STATE_WORK, ("statevector-n11",))),
    **dict.fromkeys([f"measures.dense.{k}.self_s" for k in MEASURE_KINDS] + ["measures.dense.calls"],
                    (_STATE_WORK, ("dense-n5",))),
    **dict.fromkeys(("measures.route_spread_max", "measures.route_spread_margin"),
                    ((), ("statevector-n11", "dense-n5", "interactive-small"))),
    **dict.fromkeys(("closed_forms.self_s", "closed_forms.calls"), (_STATE_WORK, ("interactive-small",))),
    **dict.fromkeys(("recovery.sample.self_s", "recovery.gf2.self_s", "recovery.queries_per_trial",
                     "recovery.useful_query_ratio", "recovery.run_stages_per_trial"),
                    (("ops_per_s",), ("recovery-n10", "interactive-small"))),
    **dict.fromkeys(("trace.overhead_ratio", "trace.unaccounted_s"), ((), ())),
}

_CLI = (("cli", None), ("cli.build_parser", "cli"), ("simon.oracle_gen", "cli"))
_STAGES = (("simon.validate_function", "simon.run_stages"), ("simon.oracle_apply", "simon.run_stages"),
           ("states.hadamard_first_register", "simon.run_stages"))
_RUN = (("simon.run_stages", "cli"), ("simon.measure_second_register", "cli"),
        ("states.hadamard_first_register", "cli"), ("closed_forms", "cli"),
        *((f"measures.pure.{k}", "cli") for k in MEASURE_KINDS[:4]))
_DENSE = (("states.density_of", "cli"), ("measures.pure.l1", "cli"), ("measures.dense.l1", "cli"))
_RECOVER = (("recovery.sample", "cli"), ("simon.run_stages", "recovery.sample"),
            ("states.first_register_distribution", "recovery.sample"), ("recovery.gf2", "recovery.sample"))

# Spans that must fire, with the span they must be called from, on each
# workload.  A wrapper that misses a by-name import would fail this check.
MUST_FIRE: dict[str, tuple[tuple[str, str | None], ...]] = {
    "statevector-n11": _CLI + _STAGES + _RUN + (("simon.table_io", "cli"),),
    "dense-n5": _CLI + _STAGES + _RUN + _DENSE + (("states.matrix_power", "measures.dense.tsallis"),)
    + tuple((f"measures.dense.{k}", "cli") for k in MEASURE_KINDS),
    "recovery-n10": _CLI + _STAGES + _RECOVER,
    "interactive-small": _CLI + _STAGES + _RUN + _DENSE + _RECOVER + (("simon.table_io", "cli"),),
}


def callers(tracer: Tracer) -> Counter:
    """Span count by (span name, calling span name or None at the root)."""
    spans = tracer.spans
    return Counter((s[NAME], spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None) for s in spans)


class TraceCheckError(RuntimeError):
    """The trace does not account for the work it should have seen."""


def check_trace(workload: str, tracer: Tracer, op_walls: dict[int, float]) -> list[float]:
    """Fail if a required span never fired or layer time overruns an op; return unaccounted seconds per op."""
    seen = callers(tracer)
    missing = [pair for pair in MUST_FIRE[workload] if pair not in seen]
    if missing:
        raise TraceCheckError(f"{workload}: spans never fired (name, caller): {missing}")
    covered = defaultdict(float)
    for span in tracer.spans:
        if span[PARENT] < 0:
            covered[span[OP]] += span[END] - span[START]
    unaccounted = [wall - covered[op] for op, wall in op_walls.items()]
    if min(unaccounted) < 0.0:
        raise TraceCheckError(f"{workload}: layer spans cover more than an op's wall time")
    return unaccounted


def layer_metrics(tracer: Tracer, op_walls: dict[int, float], stdout_bytes: int,
                  unaccounted: list[float], overhead_ratio: float, spread_max: float,
                  cross_method_tol: float) -> dict[str, float]:
    """Every per-layer metric, per traced op unless its name says otherwise."""
    ops = len(op_walls)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    notes = defaultdict(list)
    for span, own in zip(tracer.spans, tracer.self_times()):
        self_s[span[NAME]] += own
        calls[span[NAME]] += 1
        if span[NOTE] is not None:
            notes[span[NAME]].append(span[NOTE])

    by_caller = callers(tracer)
    outcomes = notes["recovery.sample"]
    trials = len(outcomes)
    queries = sum(q for q, _ in outcomes)
    metrics = {f"{name}.self_s": self_s[name] / ops for name in SPAN_NAMES}
    metrics.update({
        "cli.stdout_bytes": stdout_bytes / ops,
        "simon.oracle_apply.bytes_computed": sum(notes["simon.oracle_apply"]) / ops,
        "simon.run_stages.calls": calls["simon.run_stages"] / ops,
        "simon.table_io.bytes": sum(notes["simon.table_io"]) / ops,
        "states.hadamard_first_register.calls": calls["states.hadamard_first_register"] / ops,
        "states.hadamard_first_register.bytes_computed": sum(notes["states.hadamard_first_register"]) / ops,
        "states.density_of.bytes_computed": sum(notes["states.density_of"]) / ops,
        "states.hermitian_eig.calls": tracer.counts["states.hermitian_eig"] / ops,
        "measures.pure.calls": sum(calls[f"measures.pure.{k}"] for k in MEASURE_KINDS) / ops,
        "measures.dense.calls": sum(calls[f"measures.dense.{k}"] for k in MEASURE_KINDS) / ops,
        "measures.route_spread_max": spread_max,
        "measures.route_spread_margin": spread_max / cross_method_tol,
        "closed_forms.calls": (calls["closed_forms"] - by_caller["closed_forms", "closed_forms"]) / ops,
        "recovery.queries_per_trial": queries / trials if trials else 0.0,
        "recovery.useful_query_ratio": sum(r for _, r in outcomes) / queries if queries else 0.0,
        "recovery.run_stages_per_trial":
            by_caller["simon.run_stages", "recovery.sample"] / trials if trials else 0.0,
        "trace.overhead_ratio": overhead_ratio,
        "trace.unaccounted_s": statistics.fmean(unaccounted),
    })
    return metrics
