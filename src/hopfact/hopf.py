"""The quotient manifold M_d^n/Z_m as a decidable quotient set.

Points are nonzero n-vectors taken modulo the deck group generated by
z -> d*z and z -> e^{2*pi*i/m} * z.  Equality is decided on at most three
deck candidates, the centre shell's first, each rotation found in closed
form; canonical representatives live in the annulus ln||z|| / ln|d| in
[0, 1) with a phase normalization for the Z_m factor.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cmatrix import TWO_PI, principal_arg


@dataclass(frozen=True)
class HopfParams:
    """The triple (d, n, m) defining M_d^n/Z_m."""

    d: complex
    n: int
    m: int

    def __post_init__(self):
        d = complex(self.d)
        if not cmath.isfinite(d):
            raise ValueError(f"d must be finite (got {d!r})")
        if d == 0:
            raise ValueError("d must be nonzero")
        if abs(abs(d) - 1.0) <= 1e-9:
            raise ValueError(f"|d| must differ from 1 (got |d| = {abs(d)!r})")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class OrbitPoint:
    """A representative vector of one deck-group equivalence class."""

    params: HopfParams
    rep: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.rep, dtype=np.complex128)
        if v.ndim != 1 or v.shape[0] != self.params.n:
            raise ValueError(f"expected a vector of length {self.params.n}")
        if not np.isfinite(v).all():
            raise ValueError("orbit representative must be finite")
        # hypot scales its arguments, so the norm of a finite vector neither
        # overflows nor underflows where its sum of squares would
        if math.hypot(*v.real, *v.imag) <= 1e-300:
            raise ValueError("orbit representative must be nonzero")
        object.__setattr__(self, "rep", v)


def _sum_last(s):
    """s summed over its last axis as numpy's add.reduce, which
    ``np.linalg.norm`` calls, sums it: below 8 terms in sequence, here with
    whole arrays so that no reduction runs over the short axis, and from 8
    terms on by add.reduce itself."""
    if s.shape[-1] >= 8:
        return np.add.reduce(s, axis=-1)
    total = s[..., 0]
    for i in range(1, s.shape[-1]):
        total = total + s[..., i]
    return total


def _norm2(v):
    """The squared norm of each vector of v (..., n), ``np.linalg.norm``'s
    sum of (conj(v)*v).real."""
    return _sum_last((v.conj() * v).real)


# the two neighbours of the centre shell, as offsets of its exponent
_NEIGHBOURS = np.array([-1.0, 1.0])


def _shells(x, y, inner, d, ell, m) -> list:
    """||x - g*y||^2 on each shell of ell (..., k), one array a shell: g is
    c = d^ell times the m-th root of unity zeta nearest to the phase of
    conj(c*<x, y>), which minimizes ||x||^2 + ||c*y||^2 - 2 Re(zeta*c*<x, y>)."""
    c = d ** ell
    K = np.rint(-np.angle(c * inner) * (m / TWO_PI))            # in [-m/2, m/2]
    # K mod m, so that zeta is the same float as e^{2*pi*i*K/m}, K = 0..m-1
    g = c * np.exp(2j * math.pi * np.where(K < 0, K + m, K) / m)
    # each candidate's g*y is one product over all n coordinates with g
    # broadcast, as in a (..., 3, n) broadcast: numpy's SIMD loop rounds a
    # complex product otherwise than its scalar loop, which a product of
    # single elements may take
    return [_norm2(x - g[..., k, None] * y) for k in range(ell.shape[-1])]


def _neighbours_farther(centre, norm2_x, ell, log_d: float) -> bool:
    """Whether no neighbour shell can be nearer than the centre shell for
    any pair, with no neighbour's distance NaN: every pair's squared centre
    distance is below (B/2)^2, B = ||x||*(1 - e^{-|ln|d||/2}), and every
    float the neighbours would form stays well inside the normal range."""
    gap = math.expm1(-abs(log_d) / 2) / 2                       # -B/(2||x||)
    bound = gap * gap
    if not (centre < bound * norm2_x).all():                   # NaN fails too
        return False
    # (B/2)^2 far above the subnormals, and d^(ell* +- 1) and the neighbours'
    # g*y and c*<x, y>, at most ||x|| and ||x||^2 times e^{3|ln|d||/2},
    # below e^690, so that their rounding is relative and no product of
    # theirs overflows into a NaN
    return (float(norm2_x.min()) * bound > 1e-290
            and (float(np.abs(ell).max()) + 1.5) * abs(log_d)
            + max(math.log(float(norm2_x.max())), 0.0) < 690.0)


def orbit_distance(x, y, params: HopfParams, m=None):
    """min over deck candidates g of ||x - g*y|| / ||x||.

    Only the shell ell* = round(ln(||x||/||y||)/ln|d|) and its two
    neighbours can be nearest, as |d|^ell spacing is exponential.  On the
    shell c = d^ell, ||x - zeta*c*y||^2 = ||x||^2 + ||c*y||^2 -
    2 Re(zeta*c*<x, y>), so the best zeta in mu_m is the m-th root of unity
    nearest to the phase of conj(c*<x, y>); the distance is then taken
    directly, as that expansion cancels.  x, y and ``m`` (default
    ``params.m``, the m of each pair) broadcast over leading axes, one
    distance per vector pair.  A zero or non-finite norm makes ell*
    infinite or NaN, and d to that power is NaN, so the distance is NaN,
    never a number that could pass a tolerance.

    The centre shell comes first, and the neighbours only where they could
    change a result.  For g on the shell ell = ell* +- 1, ||x - g*y|| >=
    | ||x|| - |d|^ell ||y|| | = ||x|| * |1 - e^u|, u = ln|d| * (ell - s),
    s = ln(||x||/||y||)/ln|d|.  ell* is the integer nearest s, so
    |ell - s| >= 1/2 and |u| >= |ln|d||/2, and |1 - e^u| >= 1 - e^{-|u|}
    (for u > 0, e^u - 1 >= u >= 1 - e^{-u}): each neighbour is at least
    B = ||x|| * (1 - e^{-|ln|d||/2}) from x.  Where every pair's centre
    distance is below B/2, the least of the three is the centre's, and the
    neighbours are skipped; the factor 2 is far beyond the rounding of
    ell* and of the distances, as B is at least about 5e-10 * ||x|| for
    ||d| - 1| > 1e-9 (``HopfParams``).  The neighbours are also taken
    wherever a float they form could leave the normal range, where a NaN
    neighbour would make the distance NaN.  Otherwise they are taken for
    every pair and combined with the centre in shell order, so the result
    is the same whether they are taken or not.

    Each candidate's squared distance is a sum over the coordinates
    (``_norm2``), and the root is taken of the least of the three, which
    equals the least root; every norm is ``np.linalg.norm``'s bit for bit.
    The shells are an axis of their own, of size 1 for the centre, so that
    even one pair's products run in numpy's array loops: its scalar loops
    round a complex product otherwise.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    norm2_x = _norm2(x)
    nx = np.sqrt(norm2_x)
    log_d = math.log(abs(params.d))
    ell = np.rint(np.log(nx / np.sqrt(_norm2(y))) / log_d)[..., None]
    inner = np.einsum("...i,...i->...", x.conj(), y)[..., None]
    m = np.asarray(params.m if m is None else m, dtype=np.float64)[..., None]
    least, = _shells(x, y, inner, params.d, ell, m)
    if not _neighbours_farther(least, norm2_x, ell, log_d):
        below, above = _shells(x, y, inner, params.d, ell + _NEIGHBOURS, m)
        least = np.minimum(np.minimum(below, least), above)
    return (np.sqrt(least) / nx)[()]


def canonicalize(z: OrbitPoint) -> OrbitPoint:
    """Fundamental-domain representative of the orbit of z.

    Scales by d^{-floor(s)}, s = ln||z||/ln|d|, so the result has modulus
    exponent in [0, 1); then rotates by the m-th root of unity that
    minimizes the principal argument of the largest-modulus coordinate
    (earliest such coordinate on modulus ties).
    """
    p = z.params
    s = math.log(math.hypot(*z.rep.real, *z.rep.imag)) / math.log(abs(p.d))
    v = z.rep * p.d ** (-math.floor(s))
    arg = principal_arg(v[int(np.argmax(np.abs(v)))])
    # K = -floor(arg*m/(2*pi)) mod m minimizes (arg + 2*pi*K/m) mod 2*pi up to
    # rounding; the float key, least K on ties, picks among it and its neighbours
    k0 = -math.floor(arg * p.m / TWO_PI)
    K = min({(k0 + e) % p.m for e in (-1, 0, 1)},
            key=lambda K: ((arg + TWO_PI * K / p.m) % TWO_PI, K))
    return OrbitPoint(p, v * np.exp(2j * math.pi * K / p.m))
