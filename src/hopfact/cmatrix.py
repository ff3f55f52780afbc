"""Small dense complex linear algebra.

Matrices are square ``numpy`` arrays of ``complex128``; determinants and
inverses come from ``numpy.linalg``.  Random unitaries come from QR
orthonormalization of complex Gaussian matrices with a phase-fixed
diagonal, which is the standard Haar recipe.  ``principal_arg``,
``unitarity_residual``, ``random_unitary`` and ``su_decompose`` also take
stacks, broadcasting over leading axes, so that the oracle can run many
trials in one numpy pass.
"""

import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a square complex128 array."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def principal_arg(z):
    """Argument of z in the semiopen interval [0, 2*pi), elementwise."""
    a = np.angle(z)
    a = np.where(a < 0.0, a + TWO_PI, a)
    # angle(z) == -0.0 or exact -pi round-off can land on 2*pi after the shift
    return np.where(a >= TWO_PI, a - TWO_PI, a)[()]


def unitarity_residual(a):
    """Max-norm of a*.a - I, one value per matrix of a stack."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    gram = a.conj().swapaxes(-1, -2) @ a
    return np.max(np.abs(gram - np.eye(a.shape[-1])), axis=(-2, -1))[()]


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so streams are reproducible across platforms.
    return np.random.Generator(np.random.Philox(seed))


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic in the seed.

    A sequence of seeds (a ``range``, say) gives the (len(seeds), n, n)
    stack of the unitaries of each seed, from one stacked QR; every matrix
    equals the one its seed gives alone, bit for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    single = isinstance(seed, numbers.Integral)
    gaussians = []
    for s in [seed] if single else seed:
        rng = _rng(s)
        gaussians.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(np.stack(gaussians))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (phases / np.abs(phases))[:, None, :]
    return u[0] if single else u


@dataclass(frozen=True)
class UnitaryElement:
    """The canonical A = e^{it} B splitting of a unitary A.

    t lies in [0, 2*pi/n) and B has determinant 1; the branch is fixed by
    the principal argument of det A.
    """

    t: float
    su_part: np.ndarray


def su_decompose(a) -> UnitaryElement:
    """Split a unitary matrix, or each of a stack, as e^{it} B with B
    special unitary.

    The splitting is n-fold ambiguous; this fixes the branch
    t = Arg(det a) / n with Arg in [0, 2*pi), hence t in [0, 2*pi/n).
    A matrix with a NaN entry has a NaN residual, passes the check and
    yields NaN parts, which the oracle reports as a failed trial.
    """
    a = np.asarray(a, dtype=np.complex128)
    res = unitarity_residual(a)
    if np.any(res > 1e-10):
        raise ValueError(f"matrix is not unitary (residual {np.nanmax(res):.3e})")
    t = principal_arg(np.linalg.det(a)) / a.shape[-1]
    b = np.exp(-1j * t)[..., None, None] * a
    return UnitaryElement(t=t, su_part=b)
