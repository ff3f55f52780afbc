"""The quotient manifold M_d^n/Z_m as a decidable quotient set.

Points are nonzero n-vectors taken modulo the deck group generated by
z -> d*z and z -> e^{2*pi*i/m} * z.  Equality is decided on three deck
candidates, each rotation found in closed form; canonical representatives
live in the annulus ln||z|| / ln|d| in [0, 1) with a phase normalization
for the Z_m factor.
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

    Each candidate's squared distance is a sum over the coordinates
    (``_norm2``), and the root is taken of the least of the three, which
    equals the least root; every norm is ``np.linalg.norm``'s bit for bit.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    nx = np.sqrt(_norm2(x))
    ell_center = np.rint(np.log(nx / np.sqrt(_norm2(y))) / math.log(abs(params.d)))
    c = params.d ** (ell_center[..., None] + np.arange(-1.0, 2.0))
    inner = np.einsum("...i,...i->...", x.conj(), y)[..., None]
    m = np.asarray(params.m if m is None else m, dtype=np.float64)[..., None]
    K = np.rint(-np.angle(c * inner) * (m / TWO_PI))            # in [-m/2, m/2]
    # K mod m, so that zeta is the same float as e^{2*pi*i*K/m}, K = 0..m-1
    g = c * np.exp(2j * math.pi * np.where(K < 0, K + m, K) / m)
    # each candidate's g*y is one product over all n coordinates with g
    # broadcast, as in a (..., 3, n) broadcast: numpy's SIMD loop rounds a
    # complex product otherwise than its scalar loop, which a product of
    # single elements may take
    least = _norm2(x - g[..., 0, None] * y)
    for k in (1, 2):
        least = np.minimum(least, _norm2(x - g[..., k, None] * y))
    return (np.sqrt(least) / nx)[()]


def deck_equal(z: OrbitPoint, w: OrbitPoint, tol: float = 1e-9) -> bool:
    """Decide whether z and w represent the same point of M_d^n/Z_m."""
    if z.params != w.params:
        raise ValueError("points live on different quotient manifolds")
    return bool(orbit_distance(w.rep, z.rep, z.params) <= tol)


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
