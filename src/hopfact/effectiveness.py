"""Exact effectiveness decision and kernel witnesses.

This is the exact layer, pure integer arithmetic.  ``ActionKind`` is defined
here (``action`` re-exports it) and so is ``require_int``; the module imports
nothing of the float layer, so ``enumerate`` runs without numpy.

The existence of a nontrivial kernel element reduces to integer
congruences: clearing denominators by r*m turns the classification's
rational-membership conditions into

    (a)  ell*A  ==  n*K*r   (mod |r|*m),    A = n*(p*m + q) + eps*m
    (b)  ell*B  !=  K*r     (mod |r|*m),    B = p*m + q

with eps = +1 for the direct kind and -1 for the conjugated one.  Both
depend on ell only mod |r|*m and on K only mod m, so a kernel witness is
a pair (ell, K) in {0, ..., |r|*m - 1} x {0, ..., m - 1} satisfying (a)
and (b); the action is effective iff there is none.  The witness reported
is the lexicographically smallest one.  With g = gcd(n, m) and
h = gcd(r, A) it is

    g > 1:          (0, m/g)
    g = 1, h = 1:   none; the action is effective
    g = 1, h > 1:   (ell, K) = (|r|/h, (ell*A/r) * n^{-1} mod m)

Of these, g, A and n^{-1} mod m depend only on the grid line
(kind, n, m, p, q), and only h and ell on r: ``find_witnesses`` computes
them once per line for a whole list of r, each witness a pair of ints;
``find_witness`` is its one-r case, as a ``KernelWitness`` record.  Beside
n and m, a line's pairs depend on A alone when g = 1 and on nothing else
when g > 1, so the lines of one (n, m) fall into classes (``line_class``)
that share every pair: ``enumerate`` decides and formats each class once.

Proof.

1. At ell = 0, (a) reads m | n*K, that is (m/g) | K, and (b) reads m ∤ K.
   K = 0 fails (b).  When g > 1, K = m/g < m passes it, so (0, m/g) is
   the smallest pair.
2. Let g = 1, so n is invertible mod m.  Reducing (a) mod |r| gives
   |r| | ell*A, that is (|r|/h) | ell.  For such ell, ell*A/r is an
   integer, and (a) divided by r reads ell*A/r == n*K (mod m), which fixes
   K = (ell*A/r) * n^{-1} mod m.  So the solutions of (a) form the cyclic
   group generated by (ell1, K1) = (|r|/h, (ell1*A/r) * n^{-1} mod m),
   and ell = 0 only admits K = 0, which fails (b).  The generator has the
   smallest positive ell of any solution, so it is the witness whenever
   it satisfies (b).
3. If the generator failed (b), subtracting n times ell1*B == K1*r from
   (a) would give eps*m*ell1 == 0 (mod |r|*m), since A = n*B + eps*m;
   then |r| divides ell1 = |r|/h, so h = 1.  Hence h > 1 makes the
   generator the witness.
4. When h = 1, every solution has |r| | ell, so eps*m*ell == 0 and (a)
   reads n*(ell*B - K*r) == 0 (mod |r|*m).  Both terms of ell*B - K*r are
   multiples of |r|, and n is invertible mod m, so ell*B == K*r
   (mod |r|*m): every solution fails (b) and the action is effective.

For m = 1 the fraction q/m merges into p, K = 0 and g = 1, so the action
is effective iff gcd(r, eps + p*n) = 1 (``is_effective_corollary``).  The
tests compare both functions with the period searches they replace and
the verdicts with the floating-point kernel scan.

The kernel order.  The trivially acting scalars e^{2*pi*i*j/N} * id,
N = n*|r|, are the multiples of N/h for h = gcd(A, N), the
``kernel_order`` of the verdict:

1. Write j = a + |r|*b with 0 <= a < |r| and 0 <= b < n.  The scalar
   splits as t = 2*pi*a/N and B = e^{2*pi*i*b/n} * id.
2. Its factor d^(n*r*t/(2*pi)) = d^(sign(r)*a) is a deck element, so the
   scalar acts trivially iff e^{i*sigma*t} * e^{2*pi*i*eps*b/n} lies in
   mu_m, where B enters as itself (eps = 1) or conjugated (eps = -1).
3. m times that phase over 2*pi is (A*a + eps*m*|r|*b)/N, as sigma*m = A,
   so the condition is A*a + eps*m*|r|*b == 0 (mod N).  As
   A - eps*m = n*(p*m + q) and n*|r| = N, A*|r|*b == eps*m*|r|*b, so the
   left side is A*j (mod N): the condition is A*j == 0 (mod N), whose
   solutions are the multiples of N/h.
4. h = 1 iff the action is effective: gcd(A, n) = gcd(m, n) because
   A == eps*m (mod n), so h = 1 iff g = 1 and gcd(A, r) = 1.
"""

import cmath
import enum
import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from .action import ActionSpec


class ActionKind(enum.Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"

    @property
    def eps(self) -> int:
        return 1 if self is ActionKind.TYPE1 else -1


def require_int(value, name: str) -> int:
    """A JSON integer; bools and floats, integral or not, are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class _Record:
    """An immutable record of the fields named in ``__slots__``: equal to a
    record of its own class with equal fields, hashed and shown as a frozen
    dataclass would be.  A subclass's ``__init__`` sets each slot once,
    through ``object.__setattr__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}"
                            for name, value in zip(self.__slots__, self._values())])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class KernelWitness(_Record):
    """Lattice coordinates (ell, K) of a nontrivial kernel element."""

    __slots__ = ("ell", "K")

    def __init__(self, ell: int, K: int):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "K", K)


class KernelElement(_Record):
    """A scalar unitary e^{i(t + 2*pi*k/n)} * id acting trivially."""

    __slots__ = ("t", "k", "scalar")

    def __init__(self, t: float, k: int, scalar: complex):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "scalar", scalar)


class EffectivenessVerdict(_Record):
    """The verdict, a witness when there is one, and the order h of the
    group of scalar unitaries that act trivially (h = 1 iff effective)."""

    __slots__ = ("effective", "witness", "kernel_element", "kernel_order")

    def __init__(self, effective: bool, witness: Optional[KernelWitness] = None,
                 kernel_element: Optional[KernelElement] = None, kernel_order: int = 1):
        object.__setattr__(self, "effective", effective)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "kernel_element", kernel_element)
        object.__setattr__(self, "kernel_order", kernel_order)

    def to_dict(self) -> dict:
        return {
            "effective": self.effective,
            "witness": None if self.witness is None else
                {"ell": self.witness.ell, "K": self.witness.K},
            "kernel_element": None if self.kernel_element is None else
                {"t": self.kernel_element.t, "k": self.kernel_element.k},
            "kernel_order": self.kernel_order,
        }


def _congruence_coefficient(kind: ActionKind, n: int, m: int, p: int, q: int) -> int:
    return n * (p * m + q) + kind.eps * m


def find_witnesses(kind: ActionKind, n: int, m: int, p: int, q: int,
                   rs: Sequence[int]) -> List[Optional[Tuple[int, int]]]:
    """The witness of each r of ``rs`` on the line (kind, n, m, p, q), in
    order, as a pair (ell, K) of ints, None where the action is effective.
    g, A and n^{-1} mod m are computed once for the line; each r then costs
    one gcd, and ell and K when h > 1.  The r of a line with g > 1 share one
    pair object.  Raises ValueError if ``rs`` holds 0."""
    if 0 in rs:
        raise ValueError("r must be nonzero")
    g = math.gcd(n, m)
    if g > 1:
        return [(0, m // g)] * len(rs)
    acoef = _congruence_coefficient(kind, n, m, p, q)
    n_inv = pow(n, -1, m)
    witnesses = []
    for r in rs:
        h = math.gcd(r, acoef)
        if h == 1:
            witnesses.append(None)
        else:
            ell = abs(r) // h
            witnesses.append((ell, ell * acoef // r * n_inv % m))
    return witnesses


def line_class(kind: ActionKind, n: int, m: int, p: int, q: int) -> Optional[int]:
    """The class of the grid line (kind, n, m, p, q): two lines of equal n,
    m and class have equal ``find_witnesses`` pairs for every list of r.
    It is None when gcd(n, m) > 1, where every r has the pair (0, m/g), and
    A otherwise, the only part of the line beside n and m that the pairs
    read."""
    return None if math.gcd(n, m) > 1 else _congruence_coefficient(kind, n, m, p, q)


def find_witness(kind: ActionKind, n: int, m: int, p: int, q: int,
                 r: int) -> Optional[KernelWitness]:
    """Smallest (ell, K) in lexicographic order satisfying the kernel
    congruences, or None if the action is effective; the closed form and
    its proof are in the module docstring."""
    pair = find_witnesses(kind, n, m, p, q, (r,))[0]
    return None if pair is None else KernelWitness(*pair)


def kernel_witness_element(spec: "ActionSpec", ell: int, K: int) -> KernelElement:
    """The concrete scalar unitary determined by a witness (ell, K).

    t = 2*pi*ell/(n*r) and k = -eps*((ell/r)*sigma - n*K/m) reduced mod n,
    that is -eps*(ell*A - n*K*r)/(r*m) with A = sigma*m; the sign flips
    between the kinds because the scalar special-unitary part
    e^{2*pi*i*k/n} id enters the conjugated family through its conjugate.
    The k-formula is integral exactly when (ell, K) satisfies the kind's
    membership congruence, otherwise this raises.
    """
    n = spec.params.n
    m = spec.params.m
    acoef = _congruence_coefficient(spec.kind, n, m, spec.p, spec.q)
    quotient, remainder = divmod(ell * acoef - n * K * spec.r, spec.r * m)
    if remainder:
        raise ValueError(f"(ell, K) = ({ell}, {K}) violates the kernel congruence")
    k = -spec.kind.eps * quotient % n
    # divide the integers first: tau * ell overflows for |r| beyond 1e308
    t = math.tau * (ell / (n * spec.r))
    return KernelElement(t=t, k=k, scalar=cmath.exp(1j * (t + math.tau * k / n)))


def is_effective(spec: "ActionSpec") -> EffectivenessVerdict:
    """Decide effectiveness exactly; attach a witness and the kernel order
    when not effective."""
    n, m = spec.params.n, spec.params.m
    witness = find_witness(spec.kind, n, m, spec.p, spec.q, spec.r)
    if witness is None:
        return EffectivenessVerdict(effective=True)
    element = kernel_witness_element(spec, witness.ell, witness.K)
    h = math.gcd(_congruence_coefficient(spec.kind, n, m, spec.p, spec.q), n * spec.r)
    return EffectivenessVerdict(effective=False, witness=witness, kernel_element=element,
                                kernel_order=h)


def is_effective_corollary(n: int, p: int, r: int, kind: ActionKind) -> bool:
    """The m = 1 shortcut: effective iff gcd(r, eps + p*n) = 1."""
    if r == 0:
        raise ValueError("r must be nonzero")
    return math.gcd(r, kind.eps + p * n) == 1
