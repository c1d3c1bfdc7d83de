#!/usr/bin/env python3
"""Tabulate the closed-form coherence change across dimensions.

Prints one row per n with the hadamard-stage value, the final-stage value,
and their difference for each panel measure, plus the regime verdict.  With
--check-dense the small dimensions are re-derived from an actual simulated
oracle so the table is backed by the dense and pure-state routes, not just
algebra: each checked row prints the worst spread between the three routes.
"""

import argparse

import numpy as np

from simon_coherence import (
    DEFAULT_PANEL,
    Stage,
    classify_regime,
    coherence_delta,
    density_of,
    random_two_to_one,
    route_values,
    run_stages,
    stage_coherence,
)
from simon_coherence.tolerances import MAX_DENSE_QUBITS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--check-dense",
        action="store_true",
        help=f"cross-check rows with n <= {MAX_DENSE_QUBITS} against a simulated oracle",
    )
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    header = f"{'n':>3} {'dim':>8} {'regime':>10}"
    for measure in DEFAULT_PANEL:
        header += f" {measure.label():>22}"
    print(header)

    for n in range(1, args.n_max + 1):
        dim = 1 << n
        verdict = classify_regime(dim)
        row = f"{n:>3} {dim:>8} {verdict.regime:>10}"
        for measure in DEFAULT_PANEL:
            row += f" {coherence_delta(dim, measure):>22.12g}"
        print(row)

        if args.check_dense and n <= MAX_DENSE_QUBITS:
            s = int(rng.integers(1, dim))
            f = random_two_to_one(n, s, int(rng.integers(2**31)))
            stages = run_stages(f)
            worst = 0.0
            for stage in (Stage.HADAMARD, Stage.FINAL_HADAMARD):
                rho = density_of(stages[stage])
                for measure in DEFAULT_PANEL:
                    closed = stage_coherence(stage, dim, s, measure)
                    values = route_values(stages[stage], rho, measure, closed)
                    worst = max(worst, max(values.values()) - min(values.values()))
            print(f"    dense check (s={s:0{n}b}): worst cross-route spread {worst:.3e}")


if __name__ == "__main__":
    main()
