"""Unitary-group actions on quotients of Hopf manifolds.

The library evaluates the two classified action families of U_n on
M_d^n/Z_m, decides effectiveness exactly through integer congruences,
produces kernel witnesses for non-effective parameter choices, solves
transitivity constructively, and cross-checks every exact verdict with
an independent floating-point oracle.
"""

from .hopf import HopfParams, OrbitPoint, canonicalize, deck_equal, orbit_distance
from .action import (
    ActionKind,
    ActionSpec,
    act,
    d_pow,
    example_action,
    match_example_to_type1,
    solve_transport,
)
from .effectiveness import (
    EffectivenessVerdict,
    is_effective,
    is_effective_corollary,
    kernel_witness_element,
)
from .oracle import (
    VerificationReport,
    numeric_kernel_scan,
    verify_group_law,
    verify_transitivity,
    verify_well_definedness,
)

# The kernel probe and the checks have one implementation, broadcast numpy;
# reports and benchmark records carry this name for it.
BACKEND_NAME = "python"

__all__ = [
    "HopfParams",
    "OrbitPoint",
    "canonicalize",
    "deck_equal",
    "orbit_distance",
    "ActionKind",
    "ActionSpec",
    "act",
    "d_pow",
    "example_action",
    "match_example_to_type1",
    "solve_transport",
    "EffectivenessVerdict",
    "is_effective",
    "is_effective_corollary",
    "kernel_witness_element",
    "VerificationReport",
    "numeric_kernel_scan",
    "verify_group_law",
    "verify_transitivity",
    "verify_well_definedness",
    "BACKEND_NAME",
]

__version__ = "0.1.0"
