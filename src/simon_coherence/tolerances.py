"""Numerical tolerances and size caps shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Every cutoff used by the simulator, measures, and verification paths."""

    hermiticity: float = 1e-12          # max entry of |rho - rho^dagger|
    eigenvalue_floor: float = 1e-12     # lambda at or below this treated as 0
    diag_power_floor: float = 1e-15     # <j|rho^a|j> at or below this contributes 0
    rank_one: float = 1e-10             # purity within this of 1 triggers pure shortcuts
    coherence_clamp: float = 1e-10      # negative roundoff clamped to 0 down to -this
    cross_method: float = 1e-9          # dense vs pure agreement
    tsallis_limit_window: float = 1e-9  # |alpha - 1| inside this delegates to the log form


TOL = Tolerances()

# Largest register size n each route accepts.
MAX_ORACLE_BITS = 20       # function tables, generated oracles, the circuit and its closed forms: 2^n entries
MAX_DENSE_QUBITS = 5       # density matrix on a stage's support, up to 2^(2n) square
