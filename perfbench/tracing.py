"""In-memory spans around the public functions of each simon_coherence module.

The benchmark wraps functions from its own files and changes nothing in the
package.  A function is wrapped wherever a module of the package holds it:
``cli`` imports ``run_stages`` and ``hadamard_first_register`` by name, and
``recovery`` imports ``run_stages``, so replacing only the attribute on the
defining module would miss those calls.

A span is recorded only while an op is open (``Tracer.op`` is set), so the
benchmark's own output checks, which call ``parse_function_table``, never
show up in the trace.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

LAYER_MODULES = ("cli", "simon", "states", "measures", "closed_forms", "recovery")


def _amplitude_bytes_rw(args, kwargs, result):
    # computed: one read of the input and one write of the output amplitudes
    return args[0].amps.nbytes + result.amps.nbytes


def _hadamard_bytes(args, kwargs, result):
    # computed: each butterfly pass over a first-register bit reads and writes every amplitude
    psi = args[0]
    return 2 * psi.amps.nbytes * psi.n_first


def _result_nbytes(args, kwargs, result):
    return result.nbytes


def _table_text_bytes(args, kwargs, result):
    text = result if isinstance(result, str) else args[0]
    return len(text.encode())


def _recovery_outcome(args, kwargs, result):
    return [result.queries, result.rank]


def _pure_name(args, kwargs):
    measure = kwargs["measure"] if "measure" in kwargs else args[1]
    return f"measures.pure.{measure.kind}"


@dataclass(frozen=True)
class SpanSpec:
    """Functions of ``module`` that record spans called ``name``.

    ``name`` may be a callable of the call's arguments; ``note`` turns the
    arguments and result into a value stored on the span (bytes, outcomes).
    """

    name: str | Callable
    module: str
    functions: tuple[str, ...]
    note: Callable | None = None


SPANS = (
    SpanSpec("cli", "cli", ("main",)),
    SpanSpec("cli.build_parser", "cli", ("build_parser",)),
    SpanSpec("simon.oracle_gen", "simon", ("random_two_to_one", "random_bijection")),
    SpanSpec("simon.validate_function", "simon", ("validate_function",)),
    SpanSpec("simon.oracle_apply", "simon", ("oracle_apply",), _amplitude_bytes_rw),
    SpanSpec("simon.run_stages", "simon", ("run_stages",)),
    SpanSpec("simon.measure_second_register", "simon", ("measure_second_register",)),
    SpanSpec("simon.table_io", "simon", ("format_function_table", "parse_function_table"),
             _table_text_bytes),
    SpanSpec("states.hadamard_first_register", "states", ("hadamard_first_register",), _hadamard_bytes),
    SpanSpec("states.density_of", "states", ("density_of",), _result_nbytes),
    SpanSpec("states.first_register_distribution", "states", ("first_register_distribution",)),
    SpanSpec("states.matrix_power", "states", ("matrix_power",)),
    SpanSpec(_pure_name, "measures", ("pure_state_coherence",)),
    SpanSpec("measures.dense.tsallis", "measures", ("tsallis_coherence",)),
    SpanSpec("measures.dense.l1p", "measures", ("l1p_coherence",)),
    SpanSpec("measures.dense.rel_entropy", "measures", ("relative_entropy_coherence",)),
    SpanSpec("measures.dense.skew_info", "measures", ("skew_information_coherence",)),
    SpanSpec("measures.dense.l1", "measures", ("l1_coherence",)),
    SpanSpec("closed_forms", "closed_forms",
             ("uniform_superposition_coherence", "hadamard_stage_coherence", "final_stage_coherence",
              "final_stage_l1_candidates", "coherence_delta", "classify_regime")),
    SpanSpec("recovery.sample", "recovery", ("recover",), _recovery_outcome),
    SpanSpec("recovery.gf2", "recovery", ("add_constraint", "solve_nullspace")),
)

# Counted without a span, so their time stays in the caller's self time.
COUNTED = (("states.hermitian_eig", "states", "hermitian_eig"),)

# span record fields
NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """Records spans as ``[name, start, end, parent index, op id, note]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def install(self) -> None:
        """Replace every module attribute bound to a traced function with its wrapper."""
        package = importlib.import_module("simon_coherence")
        modules = [package] + [importlib.import_module(f"simon_coherence.{m}") for m in LAYER_MODULES]
        wrappers = {}
        for spec in SPANS:
            home = importlib.import_module(f"simon_coherence.{spec.module}")
            for fn in spec.functions:
                original = getattr(home, fn)
                wrappers[id(original)] = (original, self._span_wrapper(original, spec.name, spec.note))
        for counter_name, module, fn in COUNTED:
            original = getattr(importlib.import_module(f"simon_coherence.{module}"), fn)
            wrappers[id(original)] = (original, self._count_wrapper(original, counter_name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value, wrappers[id(value)][1]))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _span_wrapper(self, original, name, note):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            stack = tracer._stack
            record = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                      stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if note is not None:
                record[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, original, counter_name):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[counter_name] += 1
            return original(*args, **kwargs)

        return counted

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - covered[i] for i, span in enumerate(self.spans)]

    def write(self, path) -> None:
        """Write a header line of field names, then every span as one JSON array with its self time."""
        with open(path, "w") as out:
            out.write(json.dumps(["name", "start", "end", "parent", "op", "note", "self_s"]) + "\n")
            for span, self_s in zip(self.spans, self.self_times()):
                out.write(json.dumps(span + [self_s]) + "\n")
