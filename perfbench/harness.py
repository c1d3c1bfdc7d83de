"""One fresh benchmark process: import the package, generate inputs, warm up, run ops.

Started by ``perfbench/run.py``.  With ``--role setup`` the process stops after
set-up; with ``--role measure`` it then runs the workload's cycles in a closed
loop (one client, next op only after the previous one returned) until
``--seconds`` have passed and the current cycle is complete.  Each op is one
in-process ``simon_coherence.cli.main(argv)`` call with stdout captured, and
every output is checked.  The result goes to ``--result`` as JSON.

With ``--trace 1``, even-numbered cycles run with spans installed and odd ones
without, so the trace overhead is measured within the same process.
"""

from time import perf_counter

START = perf_counter()  # set-up time counts from here: import, inputs, warm-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, check, cycles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 5


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--tmp", type=Path, required=True, help="scratch directory for oracle tables")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    return parser.parse_args(argv)


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    from simon_coherence import cli

    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"simon_coherence imported from {source}, not from this checkout's src/")
    return cli


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _provenance():
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Runs ops, checks each output, and keeps the counts the result reports."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.spread_max = 0.0

    def run(self, op, op_id=None):
        """Run one op; return its wall seconds and stdout byte count."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op = op_id
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except Exception:  # a crashing op is a failed op; keep going and report it
            code = None
            err.write(traceback.format_exc())
        wall = perf_counter() - start
        if self.tracer is not None:
            self.tracer.op = None
        stdout = out.getvalue()
        self.attempted += 1
        checked = check(op, code, stdout)
        if checked.spread is not None:
            self.spread_max = max(self.spread_max, checked.spread)
        if checked.error is not None:
            self.failures.append(f"{' '.join(op.argv)}: {checked.error} {err.getvalue()[-400:]}".strip())
        return wall, len(stdout.encode())


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_package()
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{workload.name}:{args.seed}")
    warmup = workload.warmup(rng, args.tmp)
    inputs = cycles(workload, rng, args.tmp)
    runner = Runner(cli)
    for op in warmup:
        runner.run(op)
    setup_s = perf_counter() - START
    result = {"setup_s": setup_s, "warmup_ops": len(warmup)}
    if args.role == "measure":
        result.update(_measure(args, runner, inputs))
        result["provenance"] = _provenance()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures[:MAX_REPORTED_FAILURES])
    args.result.write_text(json.dumps(result))
    return 0


def _measure(args, runner, inputs):
    """Closed loop over whole cycles; untraced op walls feed the end-to-end metrics.

    A new cycle starts only if one more cycle as long as the last would end
    by the deadline, so a run never measures much past ``--seconds``.
    """
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = runner.tracer = Tracer()
    untraced: list[tuple[str, float]] = []
    traced_walls: dict[int, float] = {}
    cycle_walls = {True: [], False: []}
    stdout_bytes = 0
    deadline = perf_counter() + args.seconds
    for index, cycle in enumerate(inputs):
        cycle_start = perf_counter()
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
        walls = []
        for op in cycle:
            op_id = len(traced_walls) if traced else None
            wall, nbytes = runner.run(op, op_id)
            walls.append(wall)
            if traced:
                traced_walls[op_id] = wall
                stdout_bytes += nbytes
            else:
                untraced.append((op.command, wall))
        if traced:
            tracer.uninstall()
        cycle_walls[traced].append(sum(walls))
        now = perf_counter()
        if now + (now - cycle_start) > deadline and (tracer is None or index >= 1):
            break
    measured = {"ops": untraced, "cycles": index + 1}
    if tracer is not None:
        measured["layers"] = _layers(args, tracer, traced_walls, stdout_bytes, cycle_walls, runner)
    return measured


def _layers(args, tracer, traced_walls, stdout_bytes, cycle_walls, runner):
    from layers import check_trace, layer_metrics
    from simon_coherence.tolerances import TOL

    if args.trace_out is not None:
        tracer.write(args.trace_out)
    unaccounted = check_trace(args.workload, tracer, traced_walls)
    overhead = statistics.fmean(cycle_walls[True]) / statistics.fmean(cycle_walls[False])
    return layer_metrics(tracer, traced_walls, stdout_bytes, unaccounted, overhead,
                         runner.spread_max, TOL.cross_method)


if __name__ == "__main__":
    sys.exit(main())
