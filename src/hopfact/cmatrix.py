"""Small dense complex linear algebra.

Matrices are square ``numpy`` arrays of ``complex128``; determinants and
inverses come from ``numpy.linalg``.  Random unitaries come from QR
orthonormalization of complex Gaussian matrices with a phase-fixed
diagonal, which is the standard Haar recipe.
"""

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a square complex128 array."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def principal_arg(z: complex) -> float:
    """Argument of z in the semiopen interval [0, 2*pi)."""
    a = float(np.angle(z))
    if a < 0.0:
        a += TWO_PI
    # angle(z) == -0.0 or exact -pi round-off can land on 2*pi after the shift
    if a >= TWO_PI:
        a -= TWO_PI
    return a


def unitarity_residual(a) -> float:
    """Max-norm of a*.a - I."""
    a = as_cmatrix(a)
    n = a.shape[0]
    return float(np.max(np.abs(a.conj().T @ a - np.eye(n))))


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so streams are reproducible across platforms.
    return np.random.Generator(np.random.Philox(seed))


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic in the seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_su(n: int, seed: int) -> np.ndarray:
    """Haar-style special unitary: random unitary rescaled to det 1."""
    u = random_unitary(n, seed)
    return u * np.exp(-1j * principal_arg(np.linalg.det(u)) / n)


@dataclass(frozen=True)
class UnitaryElement:
    """A unitary A together with its canonical A = e^{it} B splitting.

    t lies in [0, 2*pi/n) and B has determinant 1; the branch is fixed by
    the principal argument of det A.
    """

    matrix: np.ndarray
    t: float
    su_part: np.ndarray


def su_decompose(a) -> UnitaryElement:
    """Split a unitary matrix as e^{it} B with B special unitary.

    The splitting is n-fold ambiguous; this fixes the branch
    t = Arg(det a) / n with Arg in [0, 2*pi), hence t in [0, 2*pi/n).
    """
    a = as_cmatrix(a)
    res = unitarity_residual(a)
    if res > 1e-10:
        raise ValueError(f"matrix is not unitary (residual {res:.3e})")
    n = a.shape[0]
    t = principal_arg(np.linalg.det(a)) / n
    b = np.exp(-1j * t) * a
    return UnitaryElement(matrix=a, t=t, su_part=b)
