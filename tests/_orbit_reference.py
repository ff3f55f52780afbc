"""References for ``hopf.orbit_distance``.

``orbit_distance`` is the search: every rotation of mu_m is tried on the
three shells around the modulus-compatible deck candidate, in one broadcast
of 3 x m x n values a pair.  ``closed_form_distance`` is the closed form as
it stood before its norms became per-coordinate sums: one broadcast of
3 x n values a pair, reduced by ``np.linalg.norm``.  ``hopf.orbit_distance``
must return exactly what the search does, and bit for bit what the closed
form does.
"""

import math

import numpy as np

TWO_PI = 2.0 * np.pi


def orbit_distance(x, y, params):
    """min over deck candidates g of ||x - g*y|| / ||x||.

    Only the modulus-compatible candidate ell* = round(ln(||x||/||y||)/ln|d|)
    and its two neighbours are searched, each times all m rotations;
    |d|^ell spacing is exponential, so these cover any small ball.  x and y
    broadcast over leading axes, one distance per vector pair.  A zero or
    non-finite norm makes ell* infinite or NaN, and d to that power is NaN,
    so the distance is NaN, never a number that could pass a tolerance.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    nx = np.linalg.norm(x, axis=-1)
    ell_center = np.rint(np.log(nx / np.linalg.norm(y, axis=-1)) / math.log(abs(params.d)))
    rots = np.exp(2j * math.pi * np.arange(params.m) / params.m)
    g = params.d ** (ell_center[..., None] + np.arange(-1.0, 2.0))[..., None] * rots
    diffs = x[..., None, None, :] - g[..., None] * y[..., None, None, :]
    return (np.linalg.norm(diffs, axis=-1).min(axis=(-2, -1)) / nx)[()]


def closed_form_distance(x, y, params, m=None):
    """The closed-form orbit distance with ``np.linalg.norm`` over a
    (..., 3, n) broadcast of the three shells' differences; ``m`` (default
    ``params.m``) broadcasts over the leading axes."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    nx = np.linalg.norm(x, axis=-1)
    ell_center = np.rint(np.log(nx / np.linalg.norm(y, axis=-1)) / math.log(abs(params.d)))
    c = params.d ** (ell_center[..., None] + np.arange(-1.0, 2.0))
    inner = np.einsum("...i,...i->...", x.conj(), y)[..., None]
    m = np.asarray(params.m if m is None else m, dtype=np.float64)[..., None]
    K = np.rint(-np.angle(c * inner) * (m / TWO_PI))
    g = c * np.exp(2j * math.pi * np.where(K < 0, K + m, K) / m)
    diffs = x[..., None, :] - g[..., None] * y[..., None, :]
    return (np.linalg.norm(diffs, axis=-1).min(axis=-1) / nx)[()]
