"""Unitary-group actions on quotients of Hopf manifolds.

The library evaluates the two classified action families of U_n on
M_d^n/Z_m, decides effectiveness exactly through integer congruences,
produces kernel witnesses for non-effective parameter choices, solves
transitivity constructively, and cross-checks every exact verdict with
an independent floating-point oracle.
"""

import importlib

# The kernel probe and the checks have one implementation, broadcast numpy;
# reports and benchmark records carry this name for it.
BACKEND_NAME = "python"

# Each public name and the module that defines it.  A name is imported on
# first use (PEP 562), so that ``import hopfact.cli`` and the exact layer
# load no numpy.
_SOURCES = {
    "HopfParams": "hopf",
    "OrbitPoint": "hopf",
    "canonicalize": "hopf",
    "orbit_distance": "hopf",
    "ActionKind": "effectiveness",
    "ActionSpec": "action",
    "act": "action",
    "d_pow": "action",
    "solve_transport": "action",
    "EffectivenessVerdict": "effectiveness",
    "is_effective": "effectiveness",
    "is_effective_corollary": "effectiveness",
    "kernel_witness_element": "effectiveness",
    "verify_group_law": "oracle",
    "verify_transitivity": "oracle",
    "verify_well_definedness": "oracle",
}

__all__ = [*_SOURCES, "BACKEND_NAME"]


def __getattr__(name: str):
    """A public name, or one of the modules the package once loaded eagerly."""
    if name in _SOURCES:
        return getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    if name in ("action", "cmatrix", "effectiveness", "hopf", "oracle"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
