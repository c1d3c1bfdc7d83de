"""Classical reconstruction of the pairing mask from measurement samples.

Each first-register sample y drawn after the final Hadamard layer, by
``states.born_samples`` from the exact Born distribution, satisfies
y . s = 0 (mod 2).  Accumulating samples in a GF(2) row-echelon system pins
the mask down once the rank reaches n - 1; the single nonzero candidate is
then confirmed with one classical collision query f(0) == f(candidate).
Rank n means only the zero vector survives and f is declared bijective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simon import SimonFunction, Stage, run_stages
from .states import born_samples, first_register_distribution

__all__ = [
    "Gf2System",
    "RecoveryReport",
    "add_constraint",
    "solve_nullspace",
    "recover",
]


@dataclass(frozen=True)
class Gf2System:
    """Parity constraints over n variables in reduced row-echelon form.

    Rows are bitset integers ordered by pivot; a row's pivot is its lowest
    set bit and appears in no other row.
    """

    n: int
    rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n}")

    @property
    def rank(self) -> int:
        return len(self.rows)


def add_constraint(system: Gf2System, y: int) -> Gf2System:
    """Row-reduce y into the system; rank grows by one iff y is independent."""
    if not 0 <= y < 1 << system.n:
        raise ValueError(f"constraint {y} is not an {system.n}-bit value")
    for row in system.rows:
        if y & (row & -row):
            y ^= row
    if y == 0:
        return system
    pivot = y & -y
    reduced = tuple((row ^ y) if (row & pivot) else row for row in system.rows)
    rows = tuple(sorted(reduced + (y,), key=lambda row: row & -row))
    return Gf2System(system.n, rows)


def solve_nullspace(system: Gf2System) -> list[int]:
    """All nonzero assignments orthogonal (mod 2) to every stored row.

    Enumerates the 2^(n - rank) - 1 nonzero nullspace members in sorted
    order; with rank n - 1 that is exactly one candidate, and with rank n
    the list is empty (only the zero vector remains).
    """
    pivot_bits = {(row & -row).bit_length() - 1 for row in system.rows}
    free_bits = [i for i in range(system.n) if i not in pivot_bits]
    members = []
    for assignment in range(1, 1 << len(free_bits)):
        x = 0
        for k, bit in enumerate(free_bits):
            if (assignment >> k) & 1:
                x |= 1 << bit
        for row in system.rows:
            if (row & x).bit_count() & 1:
                x |= row & -row
        members.append(x)
    return sorted(members)


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one recovery run.

    ``s_hat`` is the mask a collision query confirmed, 0 once rank n shows f
    is bijective, or None when the query budget ran out.
    """

    s_hat: int | None
    queries: int
    rank: int


def recover(f: SimonFunction, seed, max_queries: int | None = None) -> RecoveryReport:
    """Sample measurement outcomes until the mask is determined.

    Never consults f.s.  The circuit's final state is deterministic for a
    fixed oracle, so its measurement distribution is computed once and each
    query draws a fresh sample from it.
    """
    if max_queries is None:
        max_queries = 10 * f.n + 20
    rng = np.random.default_rng(seed)
    stages = run_stages(f)
    samples = born_samples(first_register_distribution(stages[Stage.FINAL_HADAMARD]), rng)
    system = Gf2System(f.n)
    queries = 0
    while True:
        if system.rank == f.n - 1:
            (candidate,) = solve_nullspace(system)
            if f(0) == f(candidate):
                return RecoveryReport(candidate, queries, system.rank)
            # collision refuted: f must be bijective, keep sampling to rank n
        elif system.rank == f.n:
            # every nonzero mask is refuted by some constraint, so f is bijective
            return RecoveryReport(0, queries, system.rank)
        if queries >= max_queries:
            return RecoveryReport(None, queries, system.rank)
        y = next(samples)
        queries += 1
        system = add_constraint(system, y)
