"""Stage-by-stage coherence analysis of Simon's hidden-mask circuit.

Simulates the two-register circuit (Hadamard layer, reversible oracle,
Hadamard layer), evaluates five coherence quantifiers on every intermediate
state by independent routes, checks the dimension-only closed forms for the
two superposition stages, and recovers the hidden mask from measurement
samples with GF(2) elimination.
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
