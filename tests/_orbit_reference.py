"""Search reference for ``hopf.orbit_distance``.

Every rotation of mu_m is tried on the three shells around the modulus-
compatible deck candidate, in one broadcast of 3 x m x n values a pair;
``hopf.orbit_distance``, which picks each shell's rotation in closed form,
must return exactly what this does.
"""

import math

import numpy as np


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
