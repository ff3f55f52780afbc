"""Small dense complex linear algebra.

Matrices are square ``numpy`` arrays of ``complex128``; determinants and
inverses come from ``numpy.linalg``.  Random unitaries come from QR
orthonormalization of complex Gaussian matrices with a phase-fixed
diagonal, which is the standard Haar recipe.  ``principal_arg``,
``unitarity_residual``, ``random_unitary`` and ``su_decompose`` also take
stacks, broadcasting over leading axes, so that the oracle can run many
trials in one numpy pass.

The unitary of a seed s comes from the stream of ``Generator(Philox(s))``,
so each trial can be rebuilt from its seed alone.  Philox is counter-based:
its whole state is a 128-bit key and a counter, and the key is a fixed
hash of the seed, ``SeedSequence(s).generate_state(2, np.uint64)``.
``random_unitary`` computes that hash for a whole batch of seeds at once,
in uint32 array arithmetic that follows numpy's ``SeedSequence`` step by
step (``_philox_keys``).  It then builds one ``Philox`` per call and, for
each seed, sets its state to (key, counter 0, empty buffer) before the
draws.  A seed below 2**128 enters the hash as four little-endian 32-bit
words, zero-padded, exactly as ``SeedSequence`` pads it to its pool of
four.  A larger seed hashes its extra words in a further round, so such
seeds are hashed by ``SeedSequence`` itself, one at a time, and then take
the same draw path.
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


def _running_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init, init*mult, init*mult**2, ... mod 2**32: the successive values
    of a ``SeedSequence`` hash constant."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)


# numpy's SeedSequence constants.  Its k-th hashmix call xors with _HASH_A[k]
# and multiplies by _HASH_A[k + 1]; word k of generate_state does the same
# with _HASH_B.
_HASH_A = _running_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _running_constants(0x8B51F9DD, 0x58F38DED, 5)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _operands(table: np.ndarray, calls) -> tuple:
    """The xor and multiply constants of the numbered calls, as columns."""
    calls = np.asarray(calls)[:, None]
    return table[calls], table[calls + 1]


# Calls 0..3 hash the four seed words into the pool.  Then each pool word i
# is hashed into every other word j in turn, by calls 4..15; row i itself
# takes call 0's constants and is put back afterwards.
_FILL = _operands(_HASH_A, range(4))
_MIX = [_operands(_HASH_A, [4 + 3 * i + j - (j > i) if j != i else 0 for j in range(4)])
        for i in range(4)]
_READ = _operands(_HASH_B, range(4))


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _philox_keys(seeds) -> np.ndarray:
    """The Philox key ``SeedSequence(s).generate_state(2, np.uint64)`` of
    each seed s, as the rows of a (len(seeds), 2) array."""
    a = np.asarray(seeds)
    # seeds that no numpy integer type holds together (one of 2**64 or more,
    # or one of 2**63 or more beside smaller ones), or that are not integers
    wide = a.dtype.kind not in "iu"
    if wide:
        a = np.array(seeds, dtype=object)
    if a.size and a.min() < 0:
        raise ValueError("seeds must be non-negative integers")
    words = np.zeros((4, a.size), dtype=np.uint32)
    for j in range(4 if wide else 2):
        words[j] = (a >> 32 * j) & 0xFFFFFFFF
    pool = _hashmix(words, *_FILL)
    for i, operands in enumerate(_MIX):
        own = pool[i].copy()
        pool = _MIX_L * pool - _MIX_R * _hashmix(pool[i], *operands)
        pool ^= pool >> 16
        pool[i] = own
    keys = np.ascontiguousarray(_hashmix(pool, *_READ).T, dtype="<u4").view("<u8")
    if wide:
        for i in np.flatnonzero(a >= 1 << 128):
            keys[i] = np.random.SeedSequence(a[i]).generate_state(2, np.uint64)
    return keys


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic in the seed.

    A sequence of seeds (a ``range``, say) gives the (len(seeds), n, n)
    stack of the unitaries of each seed, from one stacked QR; every matrix
    equals the one its seed gives alone, bit for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    single = isinstance(seed, numbers.Integral)
    keys = _philox_keys([seed] if single else seed)
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state                    # counter 0, empty buffer; the key is set per seed
    g = np.empty((len(keys), 2, n, n))
    for key, out in zip(keys, g):
        state["state"]["key"] = key
        bits.state = state
        rng.standard_normal(out=out)      # the real part's n*n draws, then the imaginary part's
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
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
