"""Canonical coordinates and entanglement changing power of two-qubit gates.

Computes the Kraus-Cirac (Weyl chamber) decomposition of any two-qubit
unitary, the concurrence of pure two-qubit states, and the exact interval
[c_min, c_max] of final concurrences reachable from a state of given
concurrence when the gate is dressed with arbitrary local unitaries.
Closed forms are cross-checked by an independent convex-duality bracket.
"""

from . import canonical, linalg, oracle, power, states
from .linalg import *
from .states import *
from .canonical import *
from .power import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [*linalg.__all__, *states.__all__, *canonical.__all__, *power.__all__, *oracle.__all__]
