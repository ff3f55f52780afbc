"""Search reference for the exact effectiveness layer.

The period searches that ``hopfact.effectiveness`` replaced with a closed
form, kept as the reference the tests compare it with, like
``_scan_reference.py`` for the kernel scan.  ``find_witness`` scans every
(ell, K) with ell in one period {0, ..., |r|*m - 1} (or any wider
``ell_range``, to double-check the period bound) and K in {0, ..., m - 1};
``is_effective_corollary`` scans ell in {0, ..., |r| - 1} for m = 1.
"""

from typing import Optional

from hopfact.action import ActionKind
from hopfact.effectiveness import KernelWitness


def congruent(a: int, b: int, modulus: int) -> bool:
    """True iff ``modulus`` divides ``a - b``; the modulus must be positive."""
    if modulus < 1:
        raise ValueError(f"modulus must be a positive integer, got {modulus}")
    return (a - b) % modulus == 0


def _congruence_coefficient(kind: ActionKind, n: int, m: int, p: int, q: int) -> int:
    base = n * (p * m + q)
    return base + m if kind is ActionKind.TYPE1 else base - m


def find_witness(kind: ActionKind, n: int, m: int, p: int, q: int, r: int,
                 ell_range=None) -> Optional[KernelWitness]:
    """Smallest (ell, K) in lexicographic order satisfying the kernel
    congruences, or None if the action is effective.

    ``ell_range`` defaults to the complete period {0, ..., |r|*m - 1}; a
    wider iterable may be passed to double-check the period bound.
    """
    if r == 0:
        raise ValueError("r must be nonzero")
    modulus = abs(r) * m
    acoef = _congruence_coefficient(kind, n, m, p, q)
    bcoef = p * m + q
    if ell_range is None:
        ell_range = range(modulus)
    for ell in ell_range:
        for K in range(m):
            if (ell * acoef - n * K * r) % modulus == 0 \
                    and (ell * bcoef - K * r) % modulus != 0:
                return KernelWitness(ell % modulus, K)
    return None


def is_effective_corollary(n: int, p: int, r: int, kind: ActionKind) -> bool:
    """The m = 1 shortcut: effective iff no ell with r | ell*(eps + p*n)
    while r does not divide ell*p.  The search over ell in {0, ..., |r|-1}
    is complete by periodicity."""
    if r == 0:
        raise ValueError("r must be nonzero")
    a = abs(r)
    coef = kind.eps + p * n
    for ell in range(a):
        if congruent(ell * coef, 0, a) and not congruent(ell * p, 0, a):
            return False
    return True
