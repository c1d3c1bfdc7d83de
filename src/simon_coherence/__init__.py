"""Stage-by-stage coherence analysis of Simon's hidden-mask circuit.

Simulates the two-register circuit (Hadamard layer, reversible oracle,
Hadamard layer) on integer codes, checks every stage's support against
theory and five coherence quantifiers against a dense route up to n = 5,
and recovers the hidden mask from samples with GF(2) elimination.
"""

from . import closed_forms, measures, recovery, simon, states
from .closed_forms import *
from .measures import *
from .recovery import *
from .simon import *
from .states import *
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "Tolerances",
    *states.__all__,
    *simon.__all__,
    *measures.__all__,
    *closed_forms.__all__,
    *recovery.__all__,
]
