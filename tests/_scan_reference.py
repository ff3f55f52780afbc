"""Loop reference for the kernel lattice scan.

One candidate and one sample at a time, written for reading rather than
speed.  Each pair (ell, k) is the scalar of j = sign(r)*ell + k*|r| mod
N, N = n*|r|.  The kernel probe, ``oracle._probe``, must hit exactly these
j among the j it probes, and these j must be the multiples of the gcd of
N and the probe's hits.
Kernel candidates are the scalar unitaries e^{i(2*pi*ell/(n*r) + 2*pi*k/n)} * id;
a lattice pair is reported when the acted sample points all stay within
``tol`` orbit distance of themselves.
"""

import cmath
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def scan_lattice(eps, n, m, p, q, r, d, w, z, tol):
    """Scan ell in {0..|r|m-1}, k in {0..n-1} for trivially-acting scalars.

    ``w`` holds C @ C^{-1} @ z_j row vectors (the matrix part of the action
    formula applied to each sample for a scalar special-unitary factor),
    ``z`` the original samples.  Returns a sorted list of (ell, k) pairs.
    """
    d = complex(d)
    w = np.asarray(w, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    sigma = eps + (p + q / m) * n
    log_abs_d = math.log(abs(d))
    arg_d = cmath.phase(d) % TWO_PI
    w_norms = np.linalg.norm(w, axis=1)
    z_norms = np.linalg.norm(z, axis=1)
    rots = np.exp(2j * math.pi * np.arange(m) / m)

    out = []
    for ell in range(abs(r) * m):
        for k in range(n):
            theta = TWO_PI * ell / (n * r) + TWO_PI * k / n
            t = (n * theta) % TWO_PI / n
            b = cmath.exp(1j * (theta - t))
            bp = b if eps == 1 else b.conjugate()
            mu = n * r * t / TWO_PI
            s = cmath.exp(1j * sigma * t) * math.exp(mu * log_abs_d) \
                * cmath.exp(1j * mu * arg_d) * bp
            ok = True
            for j in range(w.shape[0]):
                x = s * w[j]
                nx = abs(s) * w_norms[j]
                ell_c = round(math.log(nx / z_norms[j]) / log_abs_d)
                best = math.inf
                for ell_d in (ell_c - 1, ell_c, ell_c + 1):
                    diffs = x[None, :] - np.outer(d ** ell_d * rots, z[j])
                    best = min(best, float(np.min(np.linalg.norm(diffs, axis=1))) / nx)
                if best >= tol:
                    ok = False
                    break
            if ok:
                out.append((ell, k))
    return out
