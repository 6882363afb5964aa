"""Canonical coordinates and entanglement changing power of two-qubit gates.

Computes the Kraus-Cirac (Weyl chamber) decomposition of any two-qubit
unitary, the concurrence of pure two-qubit states, and the exact interval
[c_min, c_max] of final concurrences reachable from a state of given
concurrence when the gate is dressed with arbitrary local unitaries.
Closed forms are cross-checked by an independent convex-duality bracket.
"""

from .linalg import (
    MAGIC,
    SIGMA_X,
    SIGMA_Z,
    UnitarityError,
    distance_up_to_phase,
    is_unitary,
    normalize_special,
    random_unitary,
    tensor_product,
    to_magic_frame,
)
from .states import (
    apply_gate,
    concurrence,
    from_magic_coefficients,
    sample_state_with_concurrence,
    to_magic_coefficients,
)
from .canonical import (
    CanonicalDecomposition,
    DecompositionError,
    NotAProductError,
    canonical_gate,
    decompose,
    eigen_phases,
    in_weyl_chamber,
    nearest_kronecker_factor,
    reconstruct,
    reduce_alpha,
)
from .power import (
    GateOrdering,
    PowerInterval,
    c0_max,
    c1_min,
    can_reach_max,
    can_reach_zero,
    compare_gates,
    effective_angle,
    power_interval,
    saturation_condition,
)
from .oracle import (
    Direction,
    OptimizerConfig,
    OracleResult,
    envelope_scan,
    extremal_concurrence,
    reach_target,
    verify_profile,
)

__version__ = "0.1.0"

__all__ = [
    "MAGIC",
    "SIGMA_X",
    "SIGMA_Z",
    "UnitarityError",
    "distance_up_to_phase",
    "is_unitary",
    "normalize_special",
    "random_unitary",
    "tensor_product",
    "to_magic_frame",
    "apply_gate",
    "concurrence",
    "from_magic_coefficients",
    "sample_state_with_concurrence",
    "to_magic_coefficients",
    "CanonicalDecomposition",
    "DecompositionError",
    "NotAProductError",
    "canonical_gate",
    "decompose",
    "eigen_phases",
    "in_weyl_chamber",
    "nearest_kronecker_factor",
    "reconstruct",
    "reduce_alpha",
    "GateOrdering",
    "PowerInterval",
    "c0_max",
    "c1_min",
    "can_reach_max",
    "can_reach_zero",
    "compare_gates",
    "effective_angle",
    "power_interval",
    "saturation_condition",
    "Direction",
    "OptimizerConfig",
    "OracleResult",
    "envelope_scan",
    "extremal_concurrence",
    "reach_target",
    "verify_profile",
]
