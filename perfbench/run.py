"""Benchmark of the simon-coherence CLI; see perfbench/NOTES.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run starts fresh processes of
``perfbench/harness.py`` one after another: the first sets up and measures,
and with ``--trace 0`` more processes repeat only the set-up, so that
``setup_s`` is a median.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Exit code 0 means every metric was measured; any op whose output check failed
is counted in ``failed`` and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
P90_MIN_SAMPLES = 100
# One BLAS thread: on two shared cores a second thread mostly measures the neighbours.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="simon-coherence CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _spec() -> dict:
    if not (ROOT / "src" / "simon_coherence" / "cli.py").is_file():
        raise BenchError(f"no simon_coherence sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from layers import PREDICTIONS
    from workloads import WORKLOADS

    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads differ from {sorted(WORKLOADS)}")
    declared = {m["name"] for m in spec["per_layer"]}
    if declared != set(PREDICTIONS):
        raise BenchError(f"per-layer metrics without a prediction, or the reverse: "
                         f"{sorted(declared ^ set(PREDICTIONS))}")
    return spec


def _source_identity() -> dict:
    """The commit when run inside git, and always a hash of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "simon_coherence").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _child(role: str, args, tmp: Path, deadline: float) -> dict:
    result = tmp / f"{role}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "harness.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(tmp), "--result", str(result)]
    if args.trace:
        cmd += ["--trace-out", str(OUT / f"trace-{args.workload}.jsonl")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {role} process")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **CHILD_ENV), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process ran past the {TIME_LIMIT_S:.0f} s limit") from None
    if done.returncode != 0:
        raise BenchError(f"{role} process exited {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(result.read_text())


def _end_to_end(measured: dict, setups: list[float]) -> dict[str, float]:
    walls = [wall for _, wall in measured["ops"]]
    return {
        "op_s.p50": statistics.median(walls),
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        spec = _spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        deadline = time.monotonic() + TIME_LIMIT_S
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            measured = _child("measure", args, Path(tmp), deadline)
            setups = [measured["setup_s"]]
            others = []
            if not args.trace:
                others = [_child("setup", args, Path(tmp), deadline) for _ in range(SETUP_REPEATS - 1)]
                setups += [o["setup_s"] for o in others]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = measured["layers"] if args.trace else _end_to_end(measured, setups)
    if set(values) != {m["name"] for m in declared}:
        print(f"perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ {m['name'] for m in declared})}", file=sys.stderr)
        return 2
    attempted = measured["attempted"] + sum(o["attempted"] for o in others)
    failed = measured["failed"] + sum(o["failed"] for o in others)
    failures = measured["failures"] + [f for o in others for f in o["failures"]]
    _report(args, measured, setups, attempted, failed, failures, values, declared)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


def _report(args, measured, setups, attempted, failed, failures, values, declared):
    """Human-readable lines before the result line: provenance, counts and every metric."""
    walls = [wall for _, wall in measured["ops"]]
    provenance = dict(_source_identity(), **measured["provenance"], workload=args.workload,
                      seed=args.seed, seconds=args.seconds, trace=args.trace,
                      timed_ops=len(walls), cycles=measured["cycles"])
    print(f"provenance {json.dumps(provenance)}")
    by_command = Counter(command for command, _ in measured["ops"])
    print(f"untraced ops timed {len(walls)} ({', '.join(f'{c} {k}' for c, k in sorted(by_command.items()))}); "
          f"set-up processes {len(setups)}, warm-up ops {measured['warmup_ops']} each")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} ops failed their check)")
    for failure in failures:
        print(f"  failed: {failure}")
    for metric in declared:
        print(f"{metric['name']} {values[metric['name']]:.6g} {metric['unit']}")
    if not args.trace:
        if len(walls) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(walls, n=10)[-1]
            print(f"op_s.p90 {p90:.6g} s ({len(walls)} samples)")
        else:
            print(f"op_s.p90 not reported: {len(walls)} samples, fewer than {P90_MIN_SAMPLES}")


if __name__ == "__main__":
    sys.exit(main())
