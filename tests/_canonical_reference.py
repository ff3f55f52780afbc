"""Loop reference for the rotation that ``hopf.canonicalize`` applies.

Every K in {0, ..., m - 1} is tried; ``hopf.canonicalize`` must rotate by
exactly the K that this returns.
"""

import math

TWO_PI = 2.0 * math.pi


def rotation_index(arg, m):
    """The K minimizing (arg + 2*pi*K/m) mod 2*pi, the first on ties."""
    best_K, best_arg = 0, math.inf
    for K in range(m):
        a = (arg + TWO_PI * K / m) % TWO_PI
        if a < best_arg:
            best_arg = a
            best_K = K
    return best_K
