"""Exact effectiveness decision and kernel witnesses.

The existence of a nontrivial kernel element reduces to integer
congruences: clearing denominators by r*m turns the classification's
rational-membership conditions into

    (a)  ell*(m + n*(p*m + q)) ==  n*K*r   (mod |r|*m)     [direct kind]
    (c)  ell*(n*(p*m + q) - m) ==  n*K*r   (mod |r|*m)     [conjugated kind]
    (b)  ell*(p*m + q)         !=  K*r     (mod |r|*m)

Both sides are periodic in ell with period |r|*m, so the finite search
ell in {0, ..., |r|*m - 1}, K in {0, ..., m - 1} is complete.  The action
is effective iff no pair satisfies ((a) or (c), per kind) together with
(b).  The period bound is validated against wider searches and against
the floating-point kernel scan in the test suite.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .action import ActionKind, ActionSpec
from .cmatrix import TWO_PI


@dataclass(frozen=True)
class KernelWitness:
    """Lattice coordinates (ell, K) of a nontrivial kernel element."""

    ell: int
    K: int


@dataclass(frozen=True)
class KernelElement:
    """A scalar unitary e^{i(t + 2*pi*k/n)} * id acting trivially."""

    t: float
    k: int
    scalar: complex


@dataclass(frozen=True)
class EffectivenessVerdict:
    effective: bool
    witness: Optional[KernelWitness] = None
    kernel_element: Optional[KernelElement] = None

    def to_dict(self) -> dict:
        return {
            "effective": self.effective,
            "witness": None if self.witness is None else
                {"ell": self.witness.ell, "K": self.witness.K},
            "kernel_element": None if self.kernel_element is None else
                {"t": self.kernel_element.t, "k": self.kernel_element.k},
        }


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


def kernel_witness_element(spec: ActionSpec, ell: int, K: int) -> KernelElement:
    """The concrete scalar unitary determined by a witness (ell, K).

    t = 2*pi*ell/(n*r) and k = -eps*((ell/r)*sigma - n*K/m) reduced mod n;
    the sign flips between the kinds because the scalar special-unitary
    part e^{2*pi*i*k/n} id enters the conjugated family through its
    conjugate.  The k-formula is integral exactly when (ell, K) satisfies
    the kind's membership congruence, otherwise this raises.
    """
    n = spec.params.n
    m = spec.params.m
    kf = -spec.kind.eps * (Fraction(ell, spec.r) * spec.sigma - Fraction(n * K, m))
    if kf.denominator != 1:
        raise ValueError(f"(ell, K) = ({ell}, {K}) violates the kernel congruence")
    k = int(kf) % n
    t = TWO_PI * ell / (n * spec.r)
    return KernelElement(t=t, k=k, scalar=cmath.exp(1j * (t + TWO_PI * k / n)))


def kernel_matrix(spec: ActionSpec, element: KernelElement) -> np.ndarray:
    return element.scalar * np.eye(spec.params.n, dtype=np.complex128)


def is_effective(spec: ActionSpec) -> EffectivenessVerdict:
    """Decide effectiveness exactly; attach a witness when not effective."""
    witness = find_witness(spec.kind, spec.params.n, spec.params.m,
                           spec.p, spec.q, spec.r)
    if witness is None:
        return EffectivenessVerdict(effective=True)
    element = kernel_witness_element(spec, witness.ell, witness.K)
    return EffectivenessVerdict(effective=False, witness=witness,
                                kernel_element=element)


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
