"""Small dense complex linear algebra.

Matrices are square ``numpy`` arrays of ``complex128``; determinants and
inverses come from ``numpy.linalg``.  ``principal_arg``,
``unitarity_residual`` and ``su_decompose`` also take stacks, broadcasting
over leading axes, so that the oracle can run many trials in one numpy
pass.

Random unitaries are Haar-distributed: the Q of the QR factorization of a
complex Gaussian matrix, with R's diagonal made positive (Mezzadri, "How to
generate random matrices from the classical compact groups", Notices AMS
54, 2007).  Q comes from Gram-Schmidt run over a whole stack at once.  The
Gaussians are read at fixed positions of a counter-based Philox stream
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11): a
check seed keys one stream, and trial i of it reads the stream's words
[i*W, (i+1)*W), W = 2*n*n rounded up to a multiple of 4, which
``Philox.advance`` reaches without generating the words before them.  So a
chunk of trials is one ``random_raw`` call, Box-Muller and one stacked
Gram-Schmidt, and any trial is replayed from (check seed, index) alone.
The stream's key is that of the first child of ``SeedSequence(seed)``,
whose entropy (the seed's words, zero-padded to four, then a 0 word) no
integer seed has.  The sample points of a check come from ``Philox(seed)``,
whose entropy is the seed's own words, so no point stream is keyed from the
entropy of a unitary stream.
"""

import operator
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


def _trial_words(n: int) -> int:
    """The words of a unitary stream that one n x n trial reads: one per
    real number of its n*n Gaussian entries, rounded up to the 4 words of a
    Philox counter step, so that ``advance`` reaches each trial's first
    word."""
    return -(-2 * n * n // 4) * 4


def _unitary_stream(seed: int) -> np.random.Philox:
    """The Philox stream of the unitaries of ``seed``, at its start.  Its
    key is that of the first child of SeedSequence(seed), numpy's way to
    derive a stream independent of Philox(seed), which draws the sample
    points."""
    return np.random.Philox(np.random.SeedSequence(operator.index(seed), spawn_key=(0,)))


def _gaussians(n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, n, n) complex Gaussian matrices of trials lo..hi-1 of
    the unitary stream of ``seed``: trial i, by Box-Muller, from the words
    [i*W, (i+1)*W) of the stream, W = ``_trial_words(n)``.  The moduli come
    from its first n*n words and the phases from the next n*n."""
    if lo < 0:
        raise ValueError(f"trial indices must be non-negative, got {lo}")
    words = _trial_words(n)
    bits = _unitary_stream(seed)
    bits.advance(lo * words // 4)
    raw = bits.random_raw((hi - lo) * words).reshape(hi - lo, words)[:, :2 * n * n]
    # 53-bit uniforms, in (0, 1] for the logarithm and [0, 1) for the angle
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    # e^{i*theta}, theta uniform in [-pi, pi), from tan(theta/2) by the
    # half-angle formulas: numpy vectorizes its float64 tan on CPUs where it
    # runs cos and sin one value at a time, several times slower
    half = np.tan(np.pi * (u[:, n * n:] - 0.5))
    scale = np.sqrt(-np.log(1.0 - u[:, :n * n])) / (1.0 + half * half)
    g = np.empty((hi - lo, n * n), dtype=np.complex128)
    g.real = scale * (1.0 - half * half)
    g.imag = scale * 2.0 * half
    return g.reshape(-1, n, n)


def _orthonormalize(g: np.ndarray) -> np.ndarray:
    """The Q of g = QR with R's diagonal positive, for a stack of
    full-rank matrices g: classical Gram-Schmidt over the columns, each
    projected out twice (the second pass restores orthogonality to rounding
    level: Giraud et al., Numer. Math. 101, 2005), in numpy passes over the
    stack."""
    q = g.copy()
    for j in range(g.shape[-1]):
        v = q[..., j:j + 1]
        if j:
            done = q[..., :j]
            done_h = done.conj().swapaxes(-1, -2)
            for _ in range(2):
                v = v - done @ (done_h @ v)
        q[..., j:j + 1] = v / np.linalg.norm(v, axis=-2, keepdims=True)
    return q


def random_unitary(n: int, seed, trials: range = None) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic in the seed: trial 0
    of the unitary stream of ``seed``, a non-negative integer.

    ``trials``, a range of non-negative indices with step 1, gives the
    (len(trials), n, n) stack of those trials of the stream instead.  Each
    matrix depends only on (seed, index), so it equals, bit for bit, the
    one its trial gives alone or in any other chunk.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials is not None and trials.step != 1:
        raise ValueError("trials must be a range with step 1")
    lo, hi = (0, 1) if trials is None else (trials.start, trials.stop)
    # Q with R's diagonal positive: the QR recipe with the phases of R's
    # diagonal fixed, which makes Q Haar-distributed
    u = _orthonormalize(_gaussians(n, seed, lo, hi))
    return u[0] if trials is None else u


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
    return _split(a)


def _split(a: np.ndarray) -> UnitaryElement:
    """:func:`su_decompose` of complex128 matrices that are unitary by
    construction, such as those of :func:`random_unitary` and their
    products, without the unitarity check."""
    t = principal_arg(np.linalg.det(a)) / a.shape[-1]
    return UnitaryElement(t=t, su_part=np.exp(-1j * t)[..., None, None] * a)
